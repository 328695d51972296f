(* serve_search: an in-process kolaoptd on its Unix socket, one worker
   and one client connection in a closed loop, over the daemon's shipped
   default store (40 people, 30 vehicles — the daemon costs every search
   state on its serving store, so this size sets the miss cost).  Whole
   epochs of the seeded stream: BFS, e-graph and rule-pack searches plus
   explain+execute requests, about a quarter repeating an earlier key.
   The only workload through server, protocol/JSON, the outcome cache,
   search, the e-graph, hash-consing and the rules certifier. *)

open Common
module Json = Kola_server.Json
module Daemon = Kola_server.Daemon
module Protocol = Kola_server.Protocol
module Search = Optimizer.Search
module Plan = Perfbench.Plan

let epochs ~quick = if quick then 1 else 8
let depth = 6
let bfs_states = 200
let egraph_nodes = 1000
let params = { Daemon.default_params with Daemon.workers = 1 }
let read_file p = In_channel.with_open_bin p In_channel.input_all

(* Admitted cold at every set-up; the stream's pack requests carry the
   second. *)
let committed_packs = [ "coko/hidden_join.coko"; "coko/inj_inter.coko" ]
let pack_file = "coko/inj_inter.coko"

let num n = Json.Num (float_of_int n)

let request_json ?(telemetry = false) ~pack id (r : Plan.request) =
  let search engine = [ ("engine", Json.Str engine); ("depth", num depth); ("states", num bfs_states) ] in
  Json.Obj
    ([ ("id", num id); ("query", Json.Str (Plan.oql r.Plan.template r.Plan.k)) ]
    @ (match r.Plan.engine with
      | Plan.Bfs -> search "bfs"
      | Plan.Pack -> search "bfs" @ [ ("rules", Json.Str pack) ]
      | Plan.Egraph -> search "egraph" @ [ ("node_budget", num egraph_nodes) ]
      | Plan.Explain -> [ ("explain", Json.Bool true); ("execute", Json.Str "compiled") ])
    @ if telemetry then [ ("telemetry", Json.Bool true) ] else [])

(* ------------------------------------------------------------------ *)
(* The client end: one connection, one line out, one line back. *)

type conn = { ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let roundtrip c line =
  Span.record "client.send" (fun () ->
      output_string c.oc line;
      output_char c.oc '\n';
      flush c.oc);
  Span.record "client.recv" (fun () -> input_line c.ic)

let status j = Option.bind (Json.mem "status" j) Json.str

let expect_ok line =
  let j = Json.parse line in
  if status j <> Some "ok" then failwith ("daemon answered: " ^ line);
  j

type daemon = { t : Daemon.t; thread : Thread.t; conn : conn }

let socket = Filename.concat Common.out_dir (Printf.sprintf "kolaoptd-%d.sock" (Unix.getpid ()))

let admission src =
  Json.to_string
    (Json.Obj [ ("query", Json.Str "select p.age from p in P"); ("rules", Json.Str src) ])

(* One set-up: create the daemon, start its serve loop, connect, and
   admit every committed pack cold. *)
let start packs () =
  let t = Daemon.create ~params () in
  let m = Mutex.create () and c = Condition.create () and ready = ref false in
  let thread =
    Thread.create
      (fun () ->
        Daemon.serve ~socket t ~ready:(fun () ->
            Mutex.protect m (fun () ->
                ready := true;
                Condition.signal c)))
      ()
  in
  Mutex.protect m (fun () ->
      while not !ready do
        Condition.wait c m
      done);
  let conn = connect socket in
  List.iter
    (fun src ->
      Span.record "rules.admit" (fun () -> ignore (expect_ok (roundtrip conn (admission src)))))
    packs;
  { t; thread; conn }

let stop d =
  ignore (roundtrip d.conn {|{"cmd":"shutdown"}|});
  close_out_noerr d.conn.oc;
  Thread.join d.thread

(* ------------------------------------------------------------------ *)
(* Oracle: every search answer must be bit-identical to a direct
   Search.explore with the same settings, and the plan it returns must
   mean what the source means (AQUA's evaluator on the serving store);
   explain answers must match a direct Pipeline run; a repeat must carry
   exactly its miss's answer. *)

let volatile = [ "id"; "outcome_cache"; "queue_depth"; "micros"; "telemetry" ]

let core = function
  | Json.Obj fs -> Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fs)
  | j -> j

let field k j = Option.get (Json.mem k j)
let num_field k j = Option.get (Json.num (field k j))
let str_field k j = Option.get (Json.str (field k j))

type direct = {
  ok : bool;
  search_ms : float;
  outcome : Search.outcome option;  (** searches only *)
}

(* The direct searches share one pair of cost caches ([caches]):
   outcomes do not depend on what the caches hold (only hit counts do),
   and sharing them keeps the oracle's cost near the daemon's, which
   shares its own. *)
let config ~db ~pack_rules ~caches:(cache, hc_cache) (r : Plan.request) =
  let b = Search.default_config.Search.egraph_budgets in
  {
    Search.default_config with
    Search.engine = (if r.Plan.engine = Plan.Egraph then Search.Egraph else Search.Bfs);
    rules = (if r.Plan.engine = Plan.Pack then pack_rules else Search.default_config.Search.rules);
    egraph_budgets = { b with Kola_egraph.Saturate.max_enodes = egraph_nodes };
    max_depth = depth;
    max_states = bfs_states;
    sample_db = db;
    cost_cache = Some cache;
    hc_cost_cache = Some hc_cache;
  }

let check_miss ~db ~pack_rules ~caches (r : Plan.request) resp =
  let src = Plan.oql r.Plan.template r.Plan.k in
  let aqua = Oql.Parser.parse src in
  let expected = Aqua.Eval.eval_closed ~db aqua in
  match r.Plan.engine with
  | Plan.Explain ->
    let report = Pipeline.optimize_oql ~plan_cache:(Optimizer.Cost.plan_cache ()) ~db src in
    let v, st = Pipeline.execute ~backend:Exec.Compiled ~db report in
    let c = report.Pipeline.chosen in
    let ok =
      str_field "label" resp = c.Pipeline.label
      && str_field "plan" resp = Fmt.str "%a" Kola.Pretty.pp_query c.Pipeline.query
      && num_field "cost" resp = c.Pipeline.cost.Optimizer.Cost.weighted
      && num_field "exec_tuples" resp = float_of_int st.Exec.tuples
      && num_field "exec_probes" resp = float_of_int st.Exec.probes
      && num_field "exec_builds" resp = float_of_int st.Exec.builds
      && Exec.agree ~db v expected
    in
    { ok; search_ms = 0.; outcome = None }
  | Plan.Bfs | Plan.Egraph | Plan.Pack ->
    let q = Translate.Compile.query aqua in
    let t0 = now () in
    let o = Search.explore ~config:(config ~db ~pack_rules ~caches r) q in
    let search_ms = (now () -. t0) *. 1e3 in
    let best = o.Search.best in
    let ok =
      num_field "cost" resp = best.Search.cost
      && str_field "plan" resp = Fmt.str "%a" Kola.Pretty.pp_query best.Search.query
      && Json.arr (field "path" resp)
         = Some (List.map (fun s -> Json.Str s) best.Search.path)
      && num_field "explored" resp = float_of_int o.Search.explored
      && num_field "seen_states" resp = float_of_int o.Search.seen_states
      && str_field "stop" resp = Search.stop_reason_label o.Search.stop
      && Exec.agree ~db
           (Kola.Eval.eval_query ~db ~backend:Kola.Eval.Hashed best.Search.query)
           expected
    in
    { ok; search_ms; outcome = Some o }

(* ------------------------------------------------------------------ *)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* A telemetry:true miss over the same miss untraced (caches flushed
   before each, so both are cold), alternating order over two rounds. *)
let telemetry_overhead d ~pack reqs =
  let firsts =
    List.filter_map
      (fun t ->
        List.find_opt (fun (_, r) -> r.Plan.template = t && r.Plan.engine = Plan.Bfs && not r.Plan.repeat) reqs)
      [ Plan.Group; Plan.Child; Plan.Garage ]
  in
  let flush = {|{"cmd":"flush"}|} in
  let time line =
    ignore (expect_ok (roundtrip d.conn flush));
    let t0 = now () in
    ignore (expect_ok (roundtrip d.conn line));
    now () -. t0
  in
  let traced = ref 0. and plain = ref 0. in
  for round = 0 to 1 do
    List.iter
      (fun (id, r) ->
        let p () = plain := !plain +. time (Json.to_string (request_json ~pack id r)) in
        let t () = traced := !traced +. time (Json.to_string (request_json ~telemetry:true ~pack id r)) in
        if round = 0 then (p (); t ()) else (t (); p ()))
      firsts
  done;
  !traced /. !plain

let run ~quick ~seed ~trace =
  let packs = List.map read_file committed_packs in
  let pack = read_file pack_file in
  let d, setup_s =
    setup_reps ~rounds:(if quick then 1 else 7) ~per_round:(if quick then 1 else 5)
      ~release:stop (start packs)
  in
  let reqs = List.mapi (fun id r -> (id, r)) (Plan.serve ~seed ~epochs:(epochs ~quick)) in
  let lines = List.map (fun (id, r) -> (id, r, Json.to_string (request_json ~pack id r))) reqs in
  (* a calibration sample every five requests, three per epoch *)
  let per_segment = 5 in
  let answers =
    List.map
      (fun (id, (r : Plan.request), line) ->
        let segment = Calib.segment () in
        let t0 = now () in
        let answer = try Ok (Span.for_request id (fun () -> roundtrip d.conn line)) with e -> Error e in
        let ms = (now () -. t0) *. 1e3 in
        if (id + 1) mod per_segment = 0 then Calib.sample ();
        (id, r, answer, ms, segment))
      lines
  in
  let rss_mb = peak_rss_mb () in
  (* The traced run then replays the stream on a second, in-process
     daemon, timing decode / handle / encode through the public entry
     points under one request span each, so trace.coverage measures how
     much of a request these layers explain.  The replay sees the same
     sequence, so the same hits and misses; running it after the stream
     keeps the served daemon's work (its interning, its caches) the same
     as in an untraced run. *)
  if trace then begin
    let m = Daemon.create ~params () in
    List.iter (fun src -> ignore (Daemon.handle_line m (admission src))) packs;
    List.iter
      (fun (id, _, line) ->
        Span.request id (fun () ->
            let req = Span.record "server.decode" (fun () -> Protocol.of_line line) in
            let resp =
              Span.record "server.handle" (fun () -> Daemon.handle m (Result.get_ok req))
            in
            ignore (Span.record "server.encode" (fun () -> Json.to_string resp))))
      lines;
    Daemon.shutdown m
  end;
  let db = Daemon.db d.t in
  let pack_rules =
    match Coko.Pack.admit (Coko.Pack.of_string pack) with
    | Ok a -> Coko.Pack.shadow ~base:Rules.Catalog.all (Coko.Pack.rules a.Coko.Pack.pack)
    | Error _ -> failwith "committed pack failed certification"
  in
  let caches = (Optimizer.Cost.cache (), Optimizer.Cost.hc_cache ()) in
  let parsed =
    List.map
      (fun (id, r, answer, ms, segment) ->
        let resp =
          match answer with
          | Ok line -> ( try Some (expect_ok line) with _ -> None)
          | Error _ -> None
        in
        (id, r, resp, (ms, segment)))
      answers
  in
  let misses = List.filter (fun (_, (r : Plan.request), _, _) -> not r.Plan.repeat) parsed in
  let directs =
    par_map ~domains:(if trace then 1 else 2)
      (fun (_, r, resp, _) ->
        match resp with
        | Some resp -> (
          try check_miss ~db ~pack_rules ~caches r resp
          with e ->
            prerr_endline ("oracle failed: " ^ Printexc.to_string e);
            { ok = false; search_ms = 0.; outcome = None })
        | None -> { ok = false; search_ms = 0.; outcome = None })
      misses
  in
  let key (r : Plan.request) = (r.Plan.template, r.Plan.engine, r.Plan.k) in
  let miss_answers =
    List.map2 (fun (_, r, resp, _) dr -> (key r, (resp, dr.ok))) misses directs
  in
  let samples =
    List.map
      (fun (_, (r : Plan.request), resp, (raw_ms, segment)) ->
        let ok =
          match (resp, List.assoc_opt (key r) miss_answers) with
          | Some resp, Some (Some miss, miss_ok) ->
            let cache = str_field "outcome_cache" resp in
            miss_ok
            && cache = (if r.Plan.repeat then "hit" else "miss")
            && core resp = core miss
          | _ -> false
        in
        { cls = Plan.class_name r; raw_ms; segment; ok })
      parsed
  in
  let layers =
    if not trace then []
    else begin
      let n = List.length samples in
      let search_misses =
        List.filter_map
          (fun ((_, (r : Plan.request), resp, _), dr) ->
            match (r.Plan.engine, resp, dr.outcome) with
            | Plan.Explain, _, _ | _, None, _ | _, _, None -> None
            | _, Some resp, Some o -> Some (r, resp, o, dr.search_ms))
          (List.combine misses directs)
      in
      let engine_ms e =
        Perfbench.Stats.mean
          (List.filter_map
             (fun ((r : Plan.request), _, _, ms) -> if e r.Plan.engine then Some ms else None)
             search_misses)
      in
      let sat f =
        sum
          (fun (_, _, (o : Search.outcome), _) ->
            match o.Search.saturation with Some s -> float_of_int (f s) | None -> 0.)
          search_misses
      in
      let resp_sum f = sum (fun (_, resp, _, _) -> f resp) search_misses in
      let cache_hits = resp_sum (fun j -> num_field "hits" (field "cache" j)) in
      let cache_misses = resp_sum (fun j -> num_field "misses" (field "cache" j)) in
      let handle_of pred =
        let ids = List.filter_map (fun (id, (r : Plan.request)) -> if pred r then Some id else None) reqs in
        let spans = List.filter (fun (s : Span.t) -> List.mem s.Span.req ids) (Span.named "server.handle") in
        Perfbench.Stats.mean (List.map Span.ms spans)
      in
      let span_of name id =
        match List.find_opt (fun (s : Span.t) -> s.Span.req = id) (Span.named name) with
        | Some s -> Span.ms s
        | None -> 0.
      in
      let wire =
        List.filter_map
          (fun (id, (r : Plan.request), _, ms, _) ->
            if r.Plan.repeat then Some (ms -. span_of "server.handle" id) else None)
          answers
      in
      let stats = expect_ok (roundtrip d.conn {|{"cmd":"stats"}|}) in
      let oc = field "outcome_cache" stats in
      let hits = num_field "hits" oc and omisses = num_field "misses" oc in
      let tel = telemetry_overhead d ~pack reqs in
      [
        ("server.decode_us", mean_span "server.decode" ~requests:n *. 1e3);
        ("server.encode_us", mean_span "server.encode" ~requests:n *. 1e3);
        ("server.handle_hit_ms", handle_of (fun r -> r.Plan.repeat));
        ("server.handle_miss_ms", handle_of (fun r -> not r.Plan.repeat));
        ("server.wire_ms", Perfbench.Stats.median wire);
        ("server.outcome_hit_ratio", hits /. (hits +. omisses));
        ("search.bfs_ms", engine_ms (fun e -> e = Plan.Bfs || e = Plan.Pack));
        ("search.egraph_ms", engine_ms (fun e -> e = Plan.Egraph));
        ("search.explored", resp_sum (num_field "explored"));
        ("search.seen_states", resp_sum (num_field "seen_states"));
        ("search.cost_cache_hit_ratio", cache_hits /. (cache_hits +. cache_misses));
        ( "hashcons.sharing_ratio",
          Perfbench.Stats.mean (List.map (fun (_, resp, _, _) -> num_field "sharing_ratio" resp) search_misses) );
        ("egraph.enodes", sat (fun s -> s.Kola_egraph.Saturate.e_nodes));
        ("egraph.iterations", sat (fun s -> s.Kola_egraph.Saturate.iterations));
        ("egraph.matches_skipped", sat (fun s -> s.Kola_egraph.Saturate.matches_skipped));
        ("rules.admit_ms", Span.total_ms "rules.admit" /. float_of_int (List.length setup_s));
        ( "rules.cert_cache_hits",
          num_field "hits" (field "cert_cache" (field "packs" stats)) );
        ("telemetry.overhead", tel);
      ]
    end
  in
  stop d;
  {
    samples;
    setup_s;
    rss_mb;
    checked = List.for_all (fun (dr : direct) -> dr.ok) directs;
    layers;
  }
