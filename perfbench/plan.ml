(* The seeded request streams.  Everything here is a pure function of
   the seed: the same seed gives the same stream, and every seed gives
   the same multiset of request classes, so changing the seed changes
   the inputs but not the workload. *)

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Local workloads: [count] passes, each one seeded permutation of the
   [n] queries. *)
let passes ~seed ~count ~n =
  let st = rng ~seed ~salt:1 in
  List.init count (fun _ -> Array.to_list (shuffle st (Array.init n Fun.id)))

(* ------------------------------------------------------------------ *)
(* serve_search *)

type template = Group | Child | Garage
type engine = Bfs | Egraph | Pack  (** BFS with the rule pack *) | Explain

type request = { template : template; engine : engine; k : int; repeat : bool }

let template_name = function
  | Group -> "group"
  | Child -> "child"
  | Garage -> "garage"

let engine_name = function
  | Bfs -> "bfs"
  | Egraph -> "egraph"
  | Pack -> "pack"
  | Explain -> "explain"

(* Paper-schema OQL.  [k] only varies the key: every predicate it
   appears in holds for every row (ages are below 80, years above 1969),
   so two requests of one class do the same work. *)
let oql template k =
  match template with
  | Group ->
    Printf.sprintf
      "select [key, count(partition)] from p in P where p.age < %d group by \
       p.addr.city"
      k
  | Child ->
    Printf.sprintf
      "select [p, (select c from c in p.child where c.age < %d)] from p in P" k
  | Garage ->
    Printf.sprintf
      "select [v, flatten(select p.grgs from p in P where v in p.cars)] from \
       v in V where v.year > %d"
      k

let class_name r =
  Printf.sprintf "%s.%s.%s" (template_name r.template) (engine_name r.engine)
    (if r.repeat then "hit" else "miss")

(* One epoch: eleven fresh keys and four repeats of earlier keys (4/15,
   about a quarter), so p50 and p90 land on compute-bound misses.  With
   one request per class per epoch, an odd epoch length puts the p50
   rank in the middle of one class's samples instead of on the edge
   between two. *)
let epoch_misses =
  [
    (Group, Bfs); (Child, Bfs); (Garage, Bfs);
    (Group, Egraph); (Child, Egraph); (Garage, Egraph);
    (Group, Pack); (Garage, Pack);
    (Group, Explain); (Child, Explain); (Garage, Explain);
  ]

let epoch_repeats = [ (Child, Bfs); (Group, Egraph); (Garage, Pack); (Garage, Explain) ]

(* The constants: miss class j of a template with m miss classes gets
   k0 + m*i + j for epoch i, in a seeded order.  Each class's set of
   keys is therefore the same for every seed (only their order moves),
   no two classes share a query, and the classes' selectivities
   interleave. *)
let k0 = 80

let serve ~seed ~epochs =
  if epochs < 1 then invalid_arg "Plan.serve: epochs must be positive";
  let st = rng ~seed ~salt:2 in
  let consts =
    List.map
      (fun ((template, _) as cls) ->
        let peers = List.filter (fun (t, _) -> t = template) epoch_misses in
        let m = List.length peers in
        let rec index i = function
          | c :: rest -> if c = cls then i else index (i + 1) rest
          | [] -> assert false
        in
        let j = index 0 peers in
        (cls, shuffle st (Array.init epochs (fun i -> k0 + (m * i) + j))))
      epoch_misses
  in
  List.concat
    (List.init epochs (fun e ->
         let misses =
           shuffle st (Array.of_list epoch_misses)
           |> Array.to_list
           |> List.map (fun ((template, engine) as cls) ->
                  { template; engine; k = (List.assoc cls consts).(e); repeat = false })
         in
         List.fold_left
           (fun reqs ((template, engine) as cls) ->
             let issued = Array.sub (List.assoc cls consts) 0 (e + 1) in
             let k = issued.(Random.State.int st (Array.length issued)) in
             (* after this epoch's miss of the class, so the key exists *)
             let rec first_miss i = function
               | r :: rest ->
                 if r.template = template && r.engine = engine && not r.repeat
                 then i
                 else first_miss (i + 1) rest
               | [] -> assert false
             in
             let lo = first_miss 0 reqs + 1 in
             let pos = lo + Random.State.int st (List.length reqs - lo + 1) in
             List.filteri (fun i _ -> i < pos) reqs
             @ ({ template; engine; k; repeat = true }
               :: List.filteri (fun i _ -> i >= pos) reqs))
           misses epoch_repeats))
