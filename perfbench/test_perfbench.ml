(* Unit tests for the benchmark's pure parts: the drift-scaling and
   order-statistics arithmetic, and the seeded streams. *)

open Perfbench

let fail fmt = Printf.ksprintf failwith fmt
let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let check_float what got want =
  if not (close got want) then fail "%s: got %.17g, want %.17g" what got want

let test_scaling () =
  (* a host twice as slow as the reference reports half its raw time *)
  check_float "slow host" (Stats.scale ~k_ref:100. ~k_measured:200. 50.) 25.;
  check_float "fast host" (Stats.scale ~k_ref:100. ~k_measured:80. 40.) 50.;
  check_float "reference host" (Stats.scale ~k_ref:123.4 ~k_measured:123.4 7.5) 7.5;
  (* scaling commutes with the order statistics taken after it *)
  let xs = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  let s = Stats.scale ~k_ref:90. ~k_measured:120. in
  check_float "median" (Stats.median (List.map s xs)) (s (Stats.median xs));
  check_float "p90" (Stats.percentile 90. (List.map s xs)) (s (Stats.percentile 90. xs));
  (* a segment is scaled by the samples that bracket it *)
  let samples = [| 100.; 140.; 120. |] in
  check_float "segment 1" (Stats.segment_k samples 1) 120.;
  check_float "segment 2" (Stats.segment_k samples 2) 130.;
  (match Stats.segment_k samples 3 with
  | _ -> fail "unbracketed segment accepted"
  | exception Invalid_argument _ -> ());
  match Stats.scale ~k_ref:100. ~k_measured:0. 1. with
  | _ -> fail "zero calibration time accepted"
  | exception Invalid_argument _ -> ()

let test_order_stats () =
  check_float "odd median" (Stats.median [ 5.; 1.; 3. ]) 3.;
  check_float "even median" (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5;
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50 nearest rank" (Stats.percentile 50. hundred) 50.;
  check_float "p90 nearest rank" (Stats.percentile 90. hundred) 90.;
  check_float "p100" (Stats.percentile 100. hundred) 100.;
  check_float "geomean" (Stats.geomean [ 1.; 4.; 16. ]) 4.;
  (* every class counts once, however many samples it has *)
  check_float "class geomean"
    (Stats.class_geomean [ ("a", 1.); ("a", 1.); ("a", 100.); ("b", 4.) ])
    2.

let sorted_classes reqs = List.sort compare (List.map Plan.class_name reqs)

let test_streams () =
  let a = Plan.serve ~seed:7 ~epochs:6 and b = Plan.serve ~seed:7 ~epochs:6 in
  if a <> b then fail "serve stream is not a function of the seed";
  if Plan.passes ~seed:7 ~count:5 ~n:7 <> Plan.passes ~seed:7 ~count:5 ~n:7 then
    fail "pass order is not a function of the seed";
  let reference = sorted_classes a in
  List.iter
    (fun seed ->
      let s = Plan.serve ~seed ~epochs:6 in
      if sorted_classes s <> reference then
        fail "seed %d changes the multiset of request classes" seed;
      (* every repeat names a key issued earlier; every miss a fresh one *)
      ignore
        (List.fold_left
           (fun seen (r : Plan.request) ->
             let key = (r.template, r.engine, r.k) in
             if r.repeat && not (List.mem key seen) then
               fail "seed %d: repeat before its miss" seed;
             if (not r.repeat) && List.mem key seen then
               fail "seed %d: a miss reuses a key" seed;
             key :: seen)
           [] s);
      List.iter
        (fun p ->
          if List.sort compare p <> List.init 7 Fun.id then
            fail "seed %d: a pass is not a permutation" seed)
        (Plan.passes ~seed ~count:4 ~n:7))
    [ 1; 2; 3; 99; 123456 ];
  if Plan.serve ~seed:1 ~epochs:6 = Plan.serve ~seed:2 ~epochs:6 then
    fail "different seeds gave the same stream"

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "ok %s\n" name)
    [
      ("drift scaling", test_scaling);
      ("order statistics", test_order_stats);
      ("seeded streams", test_streams);
    ]
