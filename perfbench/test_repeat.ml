(* Count repeatability: two short runs with the same seed must report
   identical deterministic counts, and a different seed may move each
   count by only a few percent — changing the seed changes the inputs,
   not the workload.  Runs bench.exe --quick --trace 1 as a subprocess,
   so every run starts from a fresh heap and fresh global tables.

     test_repeat.exe BENCH_EXE *)

module Json = Kola_server.Json

let counts =
  [
    ("oql_adhoc", [ "optimizer.cost_tuples"; "optimizer.candidates"; "coko.rules_fired"; "optimizer.alloc_mw"; "exec.tuples"; "exec.alloc_mw" ]);
    ("exec_prepared", [ "exec.tuples"; "exec.probes"; "exec.builds"; "exec.alloc_mw" ]);
    ("serve_search", [ "search.explored"; "search.seen_states"; "egraph.enodes"; "egraph.iterations" ]);
  ]

(* Relative change allowed between seeds. *)
let tolerance = 0.05

let run exe workload seed =
  let args = [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--trace"; "1"; "--quick" |] in
  let ic = Unix.open_process_args_in exe args in
  let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s seed %d: bench failed" workload seed));
  let result = Json.parse (List.nth lines (List.length lines - 1)) in
  if Json.mem "correct" result <> Some (Json.Bool true) then
    failwith (Printf.sprintf "%s seed %d: incorrect result" workload seed);
  fun name ->
    Option.get
      (Option.bind (Json.mem "metrics" result) (fun m ->
           Option.bind (Json.mem name m) (fun v -> Option.bind (Json.mem "value" v) Json.num)))

let () =
  let exe = Sys.argv.(1) in
  let failures = ref 0 in
  List.iter
    (fun (workload, names) ->
      let a = run exe workload 11 and b = run exe workload 11 and c = run exe workload 12 in
      List.iter
        (fun name ->
          let va = a name and vb = b name and vc = c name in
          let moved = Float.abs (vc -. va) /. Float.abs va in
          let ok = va = vb && va > 0. && moved <= tolerance in
          if not ok then incr failures;
          Printf.printf "%s %-14s %-24s seed11 %.6g / %.6g  seed12 %.6g (%+.1f%%)\n"
            (if ok then "ok  " else "FAIL") workload name va vb vc
            (100. *. (vc -. va) /. va))
        names)
    counts;
  if !failures > 0 then exit 1
