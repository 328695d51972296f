(* Shared machinery: spans recorded around calls into the repo's public
   functions, host-drift calibration, the compiled-execution helper both
   local workloads use, and the result line. *)

open Perfbench
module Exec = Kola_exec.Exec
module Pipeline = Optimizer.Pipeline

let now = Clock.now

(* Run-time files (daemon socket, span dumps), relative to the checkout
   root the benchmark runs from. *)
let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent span and request id, kept in memory
   and written out when the run ends.  Off in end-to-end runs, where
   [record] is a plain call. *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (** -1 for a root *)
    req : int;  (** request id; -1 outside requests *)
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let log = ref []
  let next = ref 0
  let parent = ref (-1)
  let req = ref (-1)

  let record name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let up = !parent in
      parent := id;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          parent := up;
          log := { id; parent = up; req = !req; name; t0; t1 } :: !log)
    end

  (* Attribute the spans [f] records to request [id]. *)
  let for_request id f =
    req := id;
    Fun.protect f ~finally:(fun () -> req := -1)

  (* A root span for one timed request; its children tile it. *)
  let request id f = for_request id (fun () -> record "request" f)

  let ms s = (s.t1 -. s.t0) *. 1e3
  let named name = List.filter (fun s -> String.equal s.name name) !log
  let total_ms name = List.fold_left (fun acc s -> acc +. ms s) 0. (named name)

  (* Share of request wall time covered by the request's direct
     children: what the per-layer split leaves unexplained. *)
  let coverage () =
    let reqs = named "request" in
    let ids = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace ids s.id ()) reqs;
    let covered =
      List.fold_left
        (fun acc s -> if Hashtbl.mem ids s.parent then acc +. ms s else acc)
        0. !log
    in
    let wall = List.fold_left (fun acc s -> acc +. ms s) 0. reqs in
    if wall > 0. then covered /. wall else 0.

  (* Cost of recording one span, as a share of traced request time. *)
  let overhead () =
    let n = 20_000 in
    let saved = (!log, !next) in
    let t0 = now () in
    for _ = 1 to n do
      record "overhead-probe" ignore
    done;
    let per_span = (now () -. t0) /. float_of_int n *. 1e3 in
    log := fst saved;
    next := snd saved;
    let in_requests =
      List.length (List.filter (fun s -> s.req >= 0) !log)
    in
    let wall = total_ms "request" in
    if wall > 0. then per_span *. float_of_int in_requests /. wall else 0.

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}\n"
          s.id s.parent s.req s.name s.t0 s.t1)
      (List.rev !log);
    close_out oc
end

(* Words [f] allocates on this domain; at jobs=1 a deterministic count
   of work.  The major-heap counters only catch up at a minor
   collection (without one, a count moved by up to 8% with the order of
   earlier requests), so each reading forces one: it is taken only in
   untimed probes, never inside a timed or traced request. *)
let allocated f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* ------------------------------------------------------------------ *)
(* Host drift.  The kernel runs in its own process (a fresh heap, no
   repo code) between set-up rounds and after every pass (every five
   requests when serving), cutting the run into segments; a sample is
   the median of three back-to-back kernel runs.  Every time is reported
   at the reference host's speed, ms * k_ref / k, with k the mean of the
   two samples bracketing the segment it was measured in.  On a shared
   host the speed swings between modes within seconds; a run-level
   factor (median or mean of all samples) left 10-20% spreads where the
   bracketing pair left 5-15%, and a single kernel run per sample let
   one outlier move a whole segment (see README.md). *)

module Calib = struct
  (* The kernel's time on the reference host (a shared 2-core x86-64
     container, OCaml 5.1.1, where it read 120-230 ms), in ms. *)
  let k_ref = 150.0
  let exe = ref ""
  let samples = ref []

  let runs = ref []  (** every kernel run, newest first *)

  let kernel () =
    let ic = Unix.open_process_args_in !exe [| !exe |] in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "calibration kernel failed");
    float_of_string (String.trim line)

  let per_sample = 3

  (* A sample: the median of [per_sample] kernel runs. *)
  let sample () =
    let xs = List.init per_sample (fun _ -> kernel ()) in
    runs := List.rev_append xs !runs;
    samples := Stats.median xs :: !samples

  (* The segment now being measured: it ends at the next sample. *)
  let segment () = List.length !samples

  let k_measured () = Stats.mean !samples

  (* Run-level scaling, for per-layer figures. *)
  let scale ms = Stats.scale ~k_ref ~k_measured:(k_measured ()) ms

  let scale_in segment ms =
    Stats.scale ~k_ref
      ~k_measured:(Stats.segment_k (Array.of_list (List.rev !samples)) segment)
      ms
end

(* Set-up, measured [rounds * per_round] times after one untimed
   warm-up (the first set-up of a process pays for lazy tables and fresh
   pages, 1.2-1.7x a later one).  Each round is its own calibration
   segment, so each time is scaled by the kernel samples bracketing its
   round and the reported median does not hang on one pair of samples.
   Every rep starts on a compacted heap; [release] frees the previous
   rep's value.  Returns the last rep's value and every rep's calibration
   segment and raw wall time in seconds. *)
let setup_reps ?(release = ignore) ~rounds ~per_round f =
  let saved = !Span.log in
  let last = ref (Some (f ())) in
  Span.log := saved;
  let rep segment =
    Option.iter release !last;
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    last := Some v;
    (segment, dt)
  in
  let times =
    List.concat
      (List.init rounds (fun _ ->
           Calib.sample ();
           let segment = Calib.segment () in
           List.init per_round (fun _ -> rep segment)))
  in
  Calib.sample ();
  (Option.get !last, times)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.get

(* The company workload's seven queries, shared by both local workloads. *)
let queries =
  Datagen.Company.
    [
      ("dept_roster", dept_roster_oql); ("rich_mentors", rich_mentors_oql);
      ("mentor_pool", mentor_pool_oql); ("city_salaries", city_salaries_oql);
      ("local_staff", local_staff_oql); ("mentor_elite", mentor_elite_oql);
      ("payroll", payroll_oql);
    ]

let extents = [ "E"; "D" ]

(* The company stores are generated from one fixed seed; --seed orders
   the requests.  A store seed moves per-query work by tens of percent
   (local_staff, for one, depends on how many of the few departments
   land in Boston), so it would change the workload, not just its
   inputs.  77 is the seed the repo's own bench uses. *)
let data_seed = 77

(* ------------------------------------------------------------------ *)
(* Compiled columnar execution of a chosen plan at jobs=1 (or over
   [pool]), split into compile and execute spans; exactly what
   [Exec.run ~backend:Compiled ~layout:Columnar] does. *)

type exec_out = {
  value : Kola.Value.t;
  counters : Exec.counters option;  (** [None] when it fell back *)
  kernels : int;
  degrades : int;
}

let exec_plan ?pool ~coldb ~db (plan : Pipeline.plan) =
  match
    Span.record "exec.compile" (fun () ->
        Exec.compile_opt ~coldb plan.Pipeline.query)
  with
  | Ok c ->
    let value, counters =
      Span.record "exec.execute" (fun () ->
          Exec.execute ~dedup:plan.Pipeline.dedup ?pool ~db c)
    in
    {
      value;
      counters = Some counters;
      kernels = Exec.col_kernels c;
      degrades = List.length (Exec.col_degrades c);
    }
  | Error _ ->
    let value, _ =
      Span.record "exec.execute" (fun () ->
          Exec.run ~backend:(Exec.Interp Kola.Eval.Hashed)
            ~dedup:plan.Pipeline.dedup ~db plan.Pipeline.query)
    in
    { value; counters = None; kernels = 0; degrades = 0 }

let median_time ?(reps = 3) f =
  Stats.median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         (now () -. t0) *. 1e3))

(* Chosen plan's compiled-columnar time over the best candidate's, on
   the store it runs on.  Candidates differing only in interpreter
   backend compile to the same loops, so each (query, dedup) runs once. *)
let regret ?reps ~coldb ~db (r : Pipeline.report) =
  let key (p : Pipeline.plan) = (Kola.Term.Hc.query_key (Kola.Term.Hc.of_query p.Pipeline.query), p.Pipeline.dedup) in
  let distinct =
    List.fold_left
      (fun acc p -> if List.mem_assoc (key p) acc then acc else (key p, p) :: acc)
      [] r.Pipeline.candidates
  in
  let time p = median_time ?reps (fun () -> exec_plan ~coldb ~db p) in
  let best = List.fold_left (fun acc (_, p) -> Float.min acc (time p)) infinity distinct in
  time r.Pipeline.chosen /. best

(* ------------------------------------------------------------------ *)
(* Results. *)

type sample = {
  cls : string;
  raw_ms : float;
  segment : int;  (** calibration segment it was measured in *)
  ok : bool;
}

type outcome = {
  samples : sample list;  (** timed requests, in order *)
  setup_s : (int * float) list;  (** segment and raw seconds, one per set-up rep *)
  rss_mb : float;  (** peak RSS at the end of the timed passes *)
  checked : bool;  (** every distinct result matched its oracle *)
  layers : (string * float) list;  (** per-layer values (traced runs) *)
}

(* Per-layer metrics: name, unit.  Time units are scaled like the
   end-to-end times; a workload that does not touch a layer reports 0. *)
let per_layer =
  [
    ("oql.parse_ms", "ms"); ("translate.compile_ms", "ms");
    ("coko.normalize_ms", "ms"); ("coko.untangle_ms", "ms");
    ("coko.rules_fired", "count");
    ("optimizer.optimize_ms", "ms"); ("optimizer.cost_ms", "ms");
    ("optimizer.candidates", "count"); ("optimizer.cost_tuples", "count");
    ("optimizer.alloc_mw", "Mword"); ("optimizer.regret", "ratio");
    ("exec.compile_ms", "ms"); ("exec.run_ms", "ms"); ("exec.tuples", "count");
    ("exec.probes", "count"); ("exec.builds", "count");
    ("exec.morsels", "count"); ("exec.col_kernels", "count");
    ("exec.col_degrades", "count"); ("exec.fallbacks", "count");
    ("exec.alloc_mw", "Mword");
  ]
  @ List.map (fun (q, _) -> (Printf.sprintf "exec.q.%s.run_ms" q, "ms")) queries
  @ [
      ("parallel.jobs2_speedup", "ratio");
      ("datagen.build_ms", "ms"); ("colstore.build_ms", "ms");
      ("server.decode_us", "us"); ("server.encode_us", "us");
      ("server.handle_hit_ms", "ms"); ("server.handle_miss_ms", "ms");
      ("server.wire_ms", "ms"); ("server.outcome_hit_ratio", "ratio");
      ("search.bfs_ms", "ms"); ("search.egraph_ms", "ms");
      ("search.explored", "count"); ("search.seen_states", "count");
      ("search.cost_cache_hit_ratio", "ratio");
      ("hashcons.sharing_ratio", "ratio"); ("egraph.enodes", "count");
      ("egraph.iterations", "count"); ("egraph.matches_skipped", "count");
      ("rules.admit_ms", "ms"); ("rules.cert_cache_hits", "count");
      ("telemetry.overhead", "ratio"); ("trace.coverage", "ratio");
      ("trace.overhead", "ratio"); ("host.calib_ms", "ms");
    ]

let is_time unit = unit = "ms" || unit = "us" || unit = "s"

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
             unit)
         ms)
  ^ "}"

(* End-to-end metrics from the timed samples; [f segment ms] gives the
   reported time, so the same code gives raw and calibrated figures.
   Requests run back to back, so throughput is requests over the sum of
   their latencies. *)
let end_to_end o f =
  let lat = List.map (fun s -> f s.segment s.raw_ms) o.samples in
  let total_s = List.fold_left ( +. ) 0. lat /. 1e3 in
  [
    ("throughput_rps", float_of_int (List.length lat) /. total_s, "1/s");
    ("latency_ms_p50", Stats.percentile 50. lat, "ms");
    ("latency_ms_p90", Stats.percentile 90. lat, "ms");
    ( "latency_ms_geomean",
      Stats.class_geomean (List.map2 (fun s ms -> (s.cls, ms)) o.samples lat),
      "ms" );
    ( "setup_s",
      Stats.median (List.map (fun (seg, s) -> f seg (s *. 1e3) /. 1e3) o.setup_s),
      "s" );
    ("peak_rss_mb", o.rss_mb, "MB");
  ]

(* Every timed request with its calibration segment, the samples and
   the set-up times: enough to recompute every end-to-end figure. *)
let write_samples path o =
  let oc = open_out path in
  Printf.fprintf oc "{\"calib_ms\": [%s], \"calib_runs_ms\": [%s], \"setup_s\": [%s], \"requests\": [%s]}\n"
    (String.concat ", " (List.rev_map json_num !Calib.samples))
    (String.concat ", " (List.rev_map json_num !Calib.runs))
    (String.concat ", "
       (List.map (fun (seg, s) -> Printf.sprintf "[%d, %s]" seg (json_num s)) o.setup_s))
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "[%S, %s, %d, %b]" s.cls (json_num s.raw_ms) s.segment s.ok)
          o.samples));
  close_out oc

let report ~trace o =
  let failed = List.length (List.filter (fun s -> not s.ok) o.samples) in
  let attempted = List.length o.samples in
  let k = Calib.k_measured () in
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          let v = Option.value ~default:0. (List.assoc_opt name o.layers) in
          let v =
            if is_time unit && name <> "host.calib_ms" then Calib.scale v else v
          in
          (name, v, unit))
        per_layer
    else end_to_end o Calib.scale_in
  in
  (* The raw (unscaled) figures and the calibration samples, for
     comparing raw and calibrated spread; the result is the last line. *)
  let classes =
    List.sort_uniq String.compare (List.map (fun s -> s.cls) o.samples)
    |> List.map (fun c ->
           let ms =
             List.filter_map
               (fun s -> if s.cls = c then Some (Calib.scale_in s.segment s.raw_ms) else None)
               o.samples
           in
           Printf.sprintf "%S: %s" c (json_num (Stats.median ms)))
  in
  Printf.printf
    "{\"raw\": %s, \"k_ref\": %s, \"k_measured\": %s, \"calib_ms\": [%s], \"class_median_ms\": {%s}}\n"
    (metrics_json (if trace then [] else end_to_end o (fun _ ms -> ms)))
    (json_num Calib.k_ref) (json_num k)
    (String.concat ", " (List.rev_map json_num !Calib.samples))
    (String.concat ", " classes);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (o.checked && failed = 0) attempted failed (metrics_json metrics)

(* ------------------------------------------------------------------ *)
(* [List.map f xs] over this domain and one helper, for the untimed
   oracle phase.  Each takes the next element when it is free: a fixed
   split sent all three slow exec_prepared references to one domain. *)
let par_map ?(domains = 2) f xs =
  if domains < 2 then List.map f xs
  else begin
    let a = Array.of_list xs in
    let out = Array.make (Array.length a) None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length a then begin
        out.(i) <- Some (f a.(i));
        work ()
      end
    in
    let helper = Domain.spawn work in
    work ();
    Domain.join helper;
    Array.to_list (Array.map Option.get out)
  end

(* The local workloads' timed loop: each pass serves every query once,
   in the pass's seeded order, with a calibration sample after every
   [calib_every] passes.  The first result of each query is kept for
   the oracle; later passes must reproduce it exactly (checked outside
   the timed interval). *)

let timed_passes ~passes ~calib_every ~n ~value run =
  let first = Array.make n None in
  let samples = ref [] and rid = ref 0 in
  List.iteri
    (fun p order ->
      List.iter
        (fun i ->
          let t0 = now () in
          let r = try Ok (Span.request !rid (fun () -> run i)) with e -> Error e in
          let dt = now () -. t0 in
          incr rid;
          let ok =
            match (r, first.(i)) with
            | Error e, _ ->
              prerr_endline ("request failed: " ^ Printexc.to_string e);
              false
            | Ok v, None ->
              first.(i) <- Some v;
              true
            | Ok v, Some v0 -> Kola.Value.equal (value v) (value v0)
          in
          samples := (i, dt *. 1e3, Calib.segment (), ok) :: !samples)
        order;
      if (p + 1) mod calib_every = 0 then Calib.sample ())
    passes;
  (List.rev !samples, first)

(* Mark every sample of a query whose result failed its oracle. *)
let with_oracle samples (verdicts : bool array) =
  List.map
    (fun (i, raw_ms, segment, ok) ->
      { cls = fst (List.nth queries i); raw_ms; segment; ok = ok && verdicts.(i) })
    samples

(* A layer's time per timed request (spans outside requests excluded). *)
let mean_span name ~requests =
  let total =
    List.fold_left
      (fun acc (s : Span.t) -> if s.req >= 0 then acc +. Span.ms s else acc)
      0. (Span.named name)
  in
  if requests = 0 then 0. else total /. float_of_int requests

(* Median over passes of each query's execute span; [samples] is in
   request-id order. *)
let per_query_run_ms samples =
  let query_of_req = Array.of_list (List.map (fun (i, _, _, _) -> i) samples) in
  let runs = Array.make (List.length queries) [] in
  List.iter
    (fun (s : Span.t) ->
      if s.name = "exec.execute" && s.req >= 0 then
        let i = query_of_req.(s.req) in
        runs.(i) <- Span.ms s :: runs.(i))
    !Span.log;
  List.mapi
    (fun i (q, _) ->
      ( Printf.sprintf "exec.q.%s.run_ms" q,
        if runs.(i) = [] then 0. else Stats.median runs.(i) ))
    queries
