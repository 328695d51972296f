(* Order statistics and the host-drift scaling, kept pure so the unit
   tests pin the arithmetic every reported number goes through. *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> invalid_arg "Stats.median: empty"
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  With a fixed sample count the rank is
   the same in every run. *)
let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty"
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty"
  | xs ->
    if List.exists (fun x -> not (x > 0.)) xs then
      invalid_arg "Stats.geomean: non-positive sample";
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Host drift: a time measured while the calibration kernel took
   [k_measured] ms is reported as what it would have been on the
   reference host, where the kernel takes [k_ref] ms.  Slower host ->
   larger [k_measured] -> the time is scaled down. *)
let scale ~k_ref ~k_measured ms =
  if not (k_measured > 0. && k_ref > 0.) then
    invalid_arg "Stats.scale: calibration times must be positive";
  ms *. k_ref /. k_measured

(* Host speed during segment [seg] of a run: the mean of the
   calibration samples taken just before and just after it (samples are
   in time order; segment [seg] lies between samples [seg - 1] and
   [seg]). *)
let segment_k samples seg =
  if seg < 1 || seg >= Array.length samples then
    invalid_arg "Stats.segment_k: segment not bracketed by samples";
  (samples.(seg - 1) +. samples.(seg)) /. 2.

(* Geometric mean of per-class medians: each class (a query, or a
   template x engine x hit/miss) counts once, however many samples it
   has. *)
let class_geomean (samples : (string * float) list) =
  let classes = List.sort_uniq String.compare (List.map fst samples) in
  geomean
    (List.map
       (fun c ->
         median
           (List.filter_map
              (fun (c', v) -> if String.equal c c' then Some v else None)
              samples))
       classes)
