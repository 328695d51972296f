(* The end-to-end optimizer: plan enumeration, cost-based choice on the
   bounded costing sample, and correctness of whatever plan is chosen. *)

open Kola
open Util
module Cost = Optimizer.Cost
module Pipeline = Optimizer.Pipeline
module C = Datagen.Company

let company_queries =
  C.
    [
      ("dept_roster", dept_roster_oql); ("rich_mentors", rich_mentors_oql);
      ("mentor_pool", mentor_pool_oql); ("city_salaries", city_salaries_oql);
      ("local_staff", local_staff_oql); ("mentor_elite", mentor_elite_oql);
      ("payroll", payroll_oql);
    ]

let company_db n = C.db (C.scaled ~seed:77 n)

let optimize_company db src =
  Pipeline.optimize_oql ~plan_cache:(Cost.plan_cache ()) ~extents:[ "E"; "D" ]
    ~db src

let extent_rows v =
  match v with
  | Value.Set xs | Value.Bag xs | Value.List xs -> List.length xs
  | _ -> Alcotest.failf "not an extent: %a" Value.pp v

(* The candidate a full-store hashed costing would choose: the first
   candidate of least weighted cost, as [Pipeline.optimize] breaks ties. *)
let full_store_choice ~db (r : Pipeline.report) =
  let costed =
    List.map
      (fun (p : Pipeline.plan) ->
        let _, c =
          Cost.measure ~backend:Eval.Hashed ~dedup:p.dedup ~db p.query
        in
        (p, c.Cost.weighted))
      r.candidates
  in
  fst
    (List.fold_left
       (fun (b, bw) (p, w) -> if w < bw then (p, w) else (b, bw))
       (List.hd costed) (List.tl costed))

let garage_src =
  "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v in V"

let tests =
  [
    case "the garage query untangles and the hashed plan wins" (fun () ->
        let db =
          Datagen.Store.db
            (Datagen.Store.generate
               { Datagen.Store.default_params with people = 80; vehicles = 50; seed = 3 })
        in
        let r = Optimizer.Pipeline.optimize_oql ~db garage_src in
        Alcotest.check Alcotest.bool "untangled" true (Option.is_some r.untangled);
        Alcotest.check Alcotest.string "untangled label" "untangled"
          r.chosen.Optimizer.Pipeline.label;
        (match r.chosen.Optimizer.Pipeline.backend with
        | Eval.Hashed -> ()
        | Eval.Naive -> Alcotest.fail "expected the hashed backend");
        Alcotest.check value "result correct"
          (resolved db (Aqua.Eval.eval_closed ~db r.aqua))
          (resolved db (Optimizer.Pipeline.run ~db r)));
    case "every candidate plan computes the same result" (fun () ->
        let r = Optimizer.Pipeline.optimize_oql ~db:tiny_db garage_src in
        let expected = resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db r.aqua) in
        List.iter
          (fun (c : Optimizer.Pipeline.plan) ->
            Alcotest.check value
              (Fmt.str "plan %s/%s/%s" c.label
                 (Optimizer.Pipeline.backend_name c.backend)
                 (Optimizer.Pipeline.dedup_name c.dedup))
              expected
              (resolved tiny_db
                 (Eval.eval_query ~db:tiny_db ~backend:c.backend
                    ~dedup:c.dedup c.query)))
          r.candidates);
    case "non-hidden-join queries still optimize (no untangled plan)"
      (fun () ->
        let r =
          Optimizer.Pipeline.optimize_oql ~db:tiny_db
            "select p.age from p in P where p.age > 20"
        in
        Alcotest.check Alcotest.bool "no untangled plan" true
          (Option.is_none r.untangled);
        Alcotest.check value "still correct"
          (resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db r.aqua))
          (resolved tiny_db (Optimizer.Pipeline.run ~db:tiny_db r)));
    case "the untangled chosen cost is far below the original hashed cost"
      (fun () ->
        let db =
          Datagen.Store.db
            (Datagen.Store.generate
               { Datagen.Store.default_params with people = 150; vehicles = 90; seed = 13 })
        in
        let r = Optimizer.Pipeline.optimize_oql ~db garage_src in
        let cost_of label =
          let c =
            List.find
              (fun (c : Optimizer.Pipeline.plan) ->
                c.label = label && c.dedup = Eval.Eager)
              r.candidates
          in
          c.cost.Optimizer.Cost.weighted
        in
        (* both under the hashed backend; measured 37306 vs 1026 (36x) *)
        let original = cost_of "original" in
        let untangled = cost_of "untangled" in
        Alcotest.check Alcotest.bool
          (Fmt.str "untangled %.0f at least 10x below original %.0f" untangled
             original)
          true
          (untangled *. 10. < original));
    case "the report's rule trace is non-empty and names catalog rules"
      (fun () ->
        let r = Optimizer.Pipeline.optimize_oql ~db:tiny_db garage_src in
        Alcotest.check Alcotest.bool "trace" true (List.length r.trace > 5);
        List.iter
          (fun (s : Rewrite.Engine.step) ->
            let base =
              match Filename.chop_suffix_opt ~suffix:"-1" s.rule_name with
              | Some b -> b
              | None -> s.rule_name
            in
            Alcotest.check Alcotest.bool
              (Fmt.str "rule %s in catalog" s.rule_name)
              true
              (Option.is_some (Rules.Catalog.find base)))
          r.trace);
    case "cost measurement is deterministic" (fun () ->
        let _, c1 = Optimizer.Cost.measure ~db:tiny_db Paper.kg1 in
        let _, c2 = Optimizer.Cost.measure ~db:tiny_db Paper.kg1 in
        Alcotest.check Alcotest.int "tuples" c1.Optimizer.Cost.tuples
          c2.Optimizer.Cost.tuples);
    case "re-optimizing hits the shared plan cache, same costs" (fun () ->
        let plan_cache = Optimizer.Cost.plan_cache () in
        let r1 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:tiny_db garage_src
        in
        Alcotest.check Alcotest.int "cold run: every candidate evaluated"
          (List.length r1.candidates)
          r1.Optimizer.Pipeline.cost_cache_misses;
        Alcotest.check Alcotest.int "cold run: no hits" 0
          r1.Optimizer.Pipeline.cost_cache_hits;
        let r2 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:tiny_db garage_src
        in
        Alcotest.check Alcotest.int "warm run: every candidate served"
          (List.length r2.candidates)
          r2.Optimizer.Pipeline.cost_cache_hits;
        Alcotest.check Alcotest.int "warm run: nothing re-evaluated" 0
          r2.Optimizer.Pipeline.cost_cache_misses;
        List.iter2
          (fun (a : Optimizer.Pipeline.plan) (b : Optimizer.Pipeline.plan) ->
            Alcotest.(check (float 0.))
              (Fmt.str "%s %s cost unchanged" a.label
                 (Optimizer.Pipeline.backend_name a.backend))
              a.cost.Optimizer.Cost.weighted b.cost.Optimizer.Cost.weighted)
          r1.candidates r2.candidates;
        (* a different database invalidates the whole cache *)
        let r3 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:gen_db garage_src
        in
        Alcotest.check Alcotest.int "new db: cold again" 0
          r3.Optimizer.Pipeline.cost_cache_hits);
      case "Cost.sample bounds every extent by one stride, deterministically"
      (fun () ->
        let db = company_db 10_000 in
        let s = Cost.sample db in
        Alcotest.(check (list string)) "every extent name kept"
          (List.map fst db) (List.map fst s);
        List.iter
          (fun (name, v) ->
            Alcotest.check Alcotest.bool (name ^ " bounded") true
              (extent_rows v <= Cost.sample_rows))
          s;
        (* E has 10 000 rows: stride 10 on every extent *)
        Alcotest.(check (list (triple string int int))) "costed_on"
          [ ("E", 1_000, 10_000); ("D", 4, 40) ]
          (Cost.costed_on db);
        (match List.assoc "E" db, List.assoc "E" s with
        | Value.Set all, Value.Set cut ->
          Alcotest.check value "a stride, not a prefix"
            (List.nth all 10) (List.nth cut 1)
        | _ -> Alcotest.fail "E is a set");
        Alcotest.check Alcotest.bool "memoized by source identity" true
          (Cost.sample db == s);
        let again = Cost.sample (company_db 10_000) in
        Alcotest.check Alcotest.bool "an equal store samples equal" true
          (List.for_all2
             (fun (n1, v1) (n2, v2) -> n1 = n2 && Value.equal v1 v2)
             s again);
        List.iter
          (fun (name, v) ->
            match v with
            | Value.Set xs ->
              Alcotest.check value (name ^ " stays canonical") (Value.set xs) v
            | _ -> ())
          s);
    case "Cost.sample leaves stores at or under the bound untouched"
      (fun () ->
        List.iter
          (fun (what, db) ->
            Alcotest.check Alcotest.bool (what ^ " physically unchanged") true
              (Cost.sample db == db))
          [
            ("tiny", tiny_db);
            ("generated", gen_db);
            ("company 10^3", company_db 1_000);
            ("company 1024", company_db Cost.sample_rows);
            ( "40-person",
              Datagen.Store.db (Datagen.Store.generate Datagen.Store.default_params) );
          ]);
    case "sampled plan choice matches full-store hashed costing" (fun () ->
        List.iter
          (fun n ->
            let db = company_db n in
            List.iter
              (fun (name, src) ->
                let r = optimize_company db src in
                let full = full_store_choice ~db r in
                let show (p : Pipeline.plan) =
                  p.label ^ "/" ^ Pipeline.dedup_name p.dedup
                in
                Alcotest.(check string)
                  (Fmt.str "%s at %d rows" name n)
                  (show full) (show r.chosen))
              company_queries)
          [ 1_000; 10_000 ]);
    case "candidate costing stays flat from 10^4 to 10^5 rows" (fun () ->
        let tuples n =
          let db = company_db n in
          List.fold_left
            (fun acc (_, src) ->
              let r = optimize_company db src in
              List.fold_left
                (fun acc (p : Pipeline.plan) -> acc + p.cost.Cost.tuples)
                acc r.candidates)
            0 company_queries
        in
        let small = tuples 10_000 and large = tuples 100_000 in
        Alcotest.check Alcotest.bool
          (Fmt.str "%d tuples at 10^5 within 2x of %d at 10^4" large small)
          true
          (large <= 2 * small && small <= 2 * large));
    case "every candidate is costed under the hashed backend" (fun () ->
        let r = Pipeline.optimize_oql ~db:tiny_db garage_src in
        Alcotest.(check int) "2 labels x 2 dedups" 4 (List.length r.candidates);
        List.iter
          (fun (p : Pipeline.plan) ->
            Alcotest.(check string) "backend" "hashed"
              (Pipeline.backend_name p.backend))
          r.candidates);
    case "optimize records a span per front-end phase" (fun () ->
        let _, trace =
          Kola_telemetry.Telemetry.collecting (fun () ->
              Pipeline.optimize_oql ~plan_cache:(Cost.plan_cache ())
                ~db:tiny_db garage_src)
        in
        let names =
          List.map (fun s -> s.Kola_telemetry.Telemetry.name) trace.spans
        in
        List.iter
          (fun span ->
            Alcotest.check Alcotest.bool span true (List.mem span names))
          [
            "pipeline.translate"; "pipeline.normalize"; "pipeline.untangle";
            "pipeline.cost";
          ]);
    case "the report says what candidates were costed on" (fun () ->
        let db = company_db 10_000 in
        let r = optimize_company db C.local_staff_oql in
        Alcotest.(check (list (triple string int int))) "costed_on"
          [ ("E", 1_000, 10_000); ("D", 4, 40) ]
          r.costed_on;
        let text = Fmt.str "%a" Pipeline.pp_report r in
        Alcotest.check Alcotest.bool text true
          (contains text "costed on 1000/10000 rows of E, 4/40 rows of D"));
  ]
