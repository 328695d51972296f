(* exec_prepared: plans are chosen once at set-up on a 10^3-employee
   store of the same seed; each request is one compiled columnar
   execution at 10^5 employees, jobs=1.  Exec and colstore do all the
   work and the optimizer none: the negative control for optimizer
   changes, and where the columnar-degrade gap shows. *)

open Common

let size ~quick = if quick then 10_000 else 100_000
let passes ~quick = if quick then 2 else 16

type env = {
  reports : Pipeline.report array;
  db : (string * Kola.Value.t) list;
  coldb : Kola.Colstore.db;
}

let setup ~quick () =
  let sample =
    Span.record "datagen.build" (fun () ->
        Datagen.Company.scaled ~seed:data_seed 1_000)
  in
  let sample_db = Datagen.Company.db sample in
  let reports =
    Array.of_list
      (List.map
         (fun (_, src) ->
           Span.record "optimizer.optimize" (fun () ->
               Pipeline.optimize_oql ~extents ~db:sample_db src))
         queries)
  in
  let store =
    Span.record "datagen.build" (fun () ->
        Datagen.Company.scaled ~seed:data_seed (size ~quick))
  in
  let coldb =
    Span.record "colstore.build" (fun () -> Datagen.Company.columnar store)
  in
  { reports; db = Datagen.Company.db store; coldb }

(* The reference never comes from the plan under test: AQUA's evaluator
   on the source, or, for the three queries it evaluates quadratically
   at 10^5 (as does the hashed interpreter, but with a smaller constant),
   the hashed interpreter on the translated, unrewritten query. *)
let reference env i =
  let r = env.reports.(i) in
  match fst (List.nth queries i) with
  | "dept_roster" | "mentor_pool" | "local_staff" ->
    Kola.Eval.eval_query ~db:env.db ~backend:Kola.Eval.Hashed
      r.Pipeline.translated
  | _ -> Aqua.Eval.eval_closed ~db:env.db r.Pipeline.aqua

(* The oracle runs after timing, on two domains: the slow references
   would otherwise take most of the run. *)
let oracle env (firsts : exec_out array) =
  Array.of_list
    (par_map
       (fun i -> Exec.agree ~db:env.db firsts.(i).value (reference env i))
       (List.init (Array.length firsts) Fun.id))

let jobs2_speedup env =
  let pool = Kola_parallel.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Kola_parallel.Pool.shutdown pool) @@ fun () ->
  let total f =
    Array.fold_left (fun acc (r : Pipeline.report) -> acc +. median_time (fun () -> f r.Pipeline.chosen)) 0. env.reports
  in
  let one = total (fun p -> exec_plan ~coldb:env.coldb ~db:env.db p) in
  let two = total (fun p -> exec_plan ~pool ~coldb:env.coldb ~db:env.db p) in
  one /. two

let layers env ~samples ~(firsts : exec_out array) =
  let n = List.length samples in
  let sum f = Array.fold_left (fun acc o -> acc +. f o) 0. firsts in
  let counters f =
    sum (fun o -> match o.counters with Some c -> float_of_int (f c) | None -> 0.)
  in
  let regrets =
    Array.to_list
      (* one run per candidate: unrewritten candidates are nested loops
         at 10^5 and take seconds each *)
      (Array.map (fun r -> regret ~reps:1 ~coldb:env.coldb ~db:env.db r) env.reports)
  in
  [
    ("exec.compile_ms", mean_span "exec.compile" ~requests:n);
    ("exec.run_ms", mean_span "exec.execute" ~requests:n);
    ("exec.tuples", counters (fun c -> c.Exec.tuples));
    ("exec.probes", counters (fun c -> c.Exec.probes));
    ("exec.builds", counters (fun c -> c.Exec.builds));
    ("exec.morsels", counters (fun c -> c.Exec.morsels));
    ("exec.col_kernels", sum (fun o -> float_of_int o.kernels));
    ("exec.col_degrades", sum (fun o -> float_of_int o.degrades));
    ("exec.fallbacks", sum (fun o -> if o.counters = None then 1. else 0.));
    ( "exec.alloc_mw",
      Array.fold_left
        (fun acc (r : Pipeline.report) ->
          acc +. allocated (fun () -> exec_plan ~coldb:env.coldb ~db:env.db r.Pipeline.chosen))
        0. env.reports
      /. 1e6 );
    ("optimizer.regret", Perfbench.Stats.geomean regrets);
    ("parallel.jobs2_speedup", jobs2_speedup env);
  ]
  @ per_query_run_ms samples

let run ~quick ~seed ~trace =
  let reps = if quick then 1 else 5 in
  let env, setup_s = setup_reps ~rounds:reps ~per_round:1 (setup ~quick) in
  let setup_layers =
    [
      ("datagen.build_ms", Span.total_ms "datagen.build" /. float_of_int reps);
      ("colstore.build_ms", Span.total_ms "colstore.build" /. float_of_int reps);
    ]
  in
  let n = Array.length env.reports in
  let serve i = exec_plan ~coldb:env.coldb ~db:env.db env.reports.(i).Pipeline.chosen in
  let setup_spans = !Span.log in
  for i = 0 to n - 1 do
    ignore (serve i)
  done;
  Span.log := setup_spans;
  let samples, firsts =
    timed_passes ~n ~calib_every:1 ~value:(fun o -> o.value)
      ~passes:(Perfbench.Plan.passes ~seed ~count:(passes ~quick) ~n)
      serve
  in
  let rss_mb = peak_rss_mb () in
  let firsts = Array.map Option.get firsts in
  let verdicts = oracle env firsts in
  {
    samples = with_oracle samples verdicts;
    setup_s;
    rss_mb;
    checked = Array.for_all Fun.id verdicts;
    layers = (if trace then setup_layers @ layers env ~samples ~firsts else []);
  }
