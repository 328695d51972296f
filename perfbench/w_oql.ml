(* oql_adhoc: OQL text -> result on the company store at 10^4
   employees.  Every request gets a fresh plan cache, as a new
   `kolaopt run` does, so Pipeline.optimize costing candidates on the
   full store dominates and execution barely registers. *)

open Common
module Cost = Optimizer.Cost

let size ~quick = if quick then 1_000 else 10_000
let passes ~quick = if quick then 2 else 10

type env = { db : (string * Kola.Value.t) list; coldb : Kola.Colstore.db }

let setup ~quick () =
  let store =
    Span.record "datagen.build" (fun () ->
        Datagen.Company.scaled ~seed:data_seed (size ~quick))
  in
  let coldb =
    Span.record "colstore.build" (fun () -> Datagen.Company.columnar store)
  in
  { db = Datagen.Company.db store; coldb }

type served = { report : Pipeline.report; out : exec_out }

let optimize env ?source aqua =
  Pipeline.optimize ?source ~plan_cache:(Cost.plan_cache ()) ~db:env.db aqua

let serve env src =
  let aqua = Span.record "oql.parse" (fun () -> Oql.Parser.parse ~extents src) in
  let report = Span.record "optimizer.optimize" (fun () -> optimize env ~source:src aqua) in
  { report; out = exec_plan ~coldb:env.coldb ~db:env.db report.Pipeline.chosen }

(* The optimizer's internal phases, timed by calling their public
   functions on the same input as the request. *)
let probe_phases env (r : Pipeline.report) =
  let translate = median_time (fun () -> Translate.Compile.query r.Pipeline.aqua) in
  let normalize =
    median_time (fun () ->
        Coko.Block.run Coko.Programs.simplify r.Pipeline.translated)
  in
  let untangle =
    median_time (fun () -> Coko.Programs.hidden_join r.Pipeline.normalized)
  in
  let cost =
    let t0 = now () in
    let cache = Cost.plan_cache () in
    List.iter
      (fun (p : Pipeline.plan) ->
        ignore
          (Cost.measure_memo cache ~backend:p.Pipeline.backend
             ~dedup:p.Pipeline.dedup ~db:env.db p.Pipeline.query))
      r.Pipeline.candidates;
    (now () -. t0) *. 1e3
  in
  let regret = regret ~coldb:env.coldb ~db:env.db r in
  (translate, normalize, untangle, cost, regret)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let layers env ~samples ~(firsts : served list) =
  let alloc f = sum f firsts /. 1e6 in
  let n = List.length samples in
  let phases = List.map (fun s -> probe_phases env s.report) firsts in
  let mean f = Perfbench.Stats.mean (List.map f phases) in
  let counters f =
    sum (fun s -> match s.out.counters with Some c -> float_of_int (f c) | None -> 0.) firsts
  in
  [
    ("oql.parse_ms", mean_span "oql.parse" ~requests:n);
    ("optimizer.optimize_ms", mean_span "optimizer.optimize" ~requests:n);
    ("exec.compile_ms", mean_span "exec.compile" ~requests:n);
    ("exec.run_ms", mean_span "exec.execute" ~requests:n);
    ("translate.compile_ms", mean (fun (t, _, _, _, _) -> t));
    ("coko.normalize_ms", mean (fun (_, t, _, _, _) -> t));
    ("coko.untangle_ms", mean (fun (_, _, t, _, _) -> t));
    ("optimizer.cost_ms", mean (fun (_, _, _, t, _) -> t));
    ( "optimizer.regret",
      Perfbench.Stats.geomean (List.map (fun (_, _, _, _, r) -> r) phases) );
    ( "coko.rules_fired",
      sum (fun s -> float_of_int (List.length s.report.Pipeline.trace)) firsts );
    ( "optimizer.candidates",
      sum (fun s -> float_of_int (List.length s.report.Pipeline.candidates)) firsts );
    ( "optimizer.cost_tuples",
      sum
        (fun s ->
          sum
            (fun (p : Pipeline.plan) -> float_of_int p.Pipeline.cost.Cost.tuples)
            s.report.Pipeline.candidates)
        firsts );
    ( "optimizer.alloc_mw",
      alloc (fun s ->
          let r = s.report in
          allocated (fun () -> optimize env ?source:r.Pipeline.source r.Pipeline.aqua)) );
    ( "exec.alloc_mw",
      alloc (fun s ->
          allocated (fun () -> exec_plan ~coldb:env.coldb ~db:env.db s.report.Pipeline.chosen)) );
    ("exec.tuples", counters (fun c -> c.Exec.tuples));
    ("exec.probes", counters (fun c -> c.Exec.probes));
    ("exec.builds", counters (fun c -> c.Exec.builds));
    ("exec.morsels", counters (fun c -> c.Exec.morsels));
    ("exec.col_kernels", sum (fun s -> float_of_int s.out.kernels) firsts);
    ("exec.col_degrades", sum (fun s -> float_of_int s.out.degrades) firsts);
    ( "exec.fallbacks",
      sum (fun s -> if s.out.counters = None then 1. else 0.) firsts );
  ]
  @ per_query_run_ms samples

let setup_layers () =
  let median name = Perfbench.Stats.median (List.map Span.ms (Span.named name)) in
  [ ("datagen.build_ms", median "datagen.build"); ("colstore.build_ms", median "colstore.build") ]

let run ~quick ~seed ~trace =
  let env, setup_s =
    setup_reps ~rounds:(if quick then 1 else 5) ~per_round:(if quick then 1 else 3) (setup ~quick)
  in
  let srcs = Array.of_list (List.map snd queries) in
  let n = Array.length srcs in
  (* one untimed pass: lazy tables and the heap reach their steady size *)
  let setup_spans = !Span.log in
  List.iter (fun i -> ignore (serve env srcs.(i))) (List.init n Fun.id);
  Span.log := setup_spans;
  let samples, firsts =
    timed_passes ~n ~calib_every:1 ~value:(fun s -> s.out.value)
      ~passes:(Perfbench.Plan.passes ~seed ~count:(passes ~quick) ~n)
      (fun i -> serve env srcs.(i))
  in
  let rss_mb = peak_rss_mb () in
  let firsts = Array.to_list (Array.map Option.get firsts) in
  (* oracle: AQUA's reference evaluator on the source query *)
  let verdicts =
    Array.of_list
      (List.map
         (fun s ->
           Exec.agree ~db:env.db s.out.value
             (Aqua.Eval.eval_closed ~db:env.db s.report.Pipeline.aqua))
         firsts)
  in
  let layers =
    if trace then
      setup_layers ()
      @ layers env ~samples ~firsts
    else []
  in
  {
    samples = with_oracle samples verdicts;
    setup_s;
    rss_mb;
    checked = Array.for_all Fun.id verdicts;
    layers;
  }
