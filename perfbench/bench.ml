(* The end-to-end benchmark's workload runner.  Usage (from the repo
   root, normally through perfbench/run.py):

     bench.exe --workload oql_adhoc|exec_prepared|serve_search --seed N
               [--trace 0|1] [--seconds S] [--quick]

   Work per run is fixed (passes or epochs), so --seconds is accepted
   and ignored.  --quick shrinks stores and pass counts for the
   repeatability test.  The last line of standard output is the result
   object; the line before it carries raw (uncalibrated) figures. *)

open Common

let min_coverage = 0.95

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1");
      ("--seconds", Arg.Int ignore, "S (work per run is fixed)");
      ("--quick", Arg.Set quick, " small stores, few passes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace 0|1]";
  let run =
    match !workload with
    | "oql_adhoc" -> W_oql.run
    | "exec_prepared" -> W_exec.run
    | "serve_search" -> W_serve.run
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Calib.exe := Filename.concat (Filename.dirname Sys.executable_name) "calib.exe";
  Span.on := !trace;
  let o = run ~quick:!quick ~seed:!seed ~trace:!trace in
  write_samples
    (Filename.concat out_dir
       (Printf.sprintf "samples-%s-%d-%d.json" !workload !seed
          (if !trace then 1 else 0)))
    o;
  let o =
    if !trace then begin
      Span.write
        (Filename.concat out_dir
           (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      let coverage = Span.coverage () in
      (* the per-layer split must explain nearly all of a request *)
      if coverage < min_coverage then
        Printf.eprintf "trace.coverage %.4f is below %.2f\n" coverage min_coverage;
      {
        o with
        checked = o.checked && coverage >= min_coverage;
        layers =
          o.layers
          @ [
              ("trace.coverage", coverage);
              ("trace.overhead", Span.overhead ());
              ("host.calib_ms", Calib.k_measured ());
            ];
      }
    end
    else o
  in
  report ~trace:!trace o
