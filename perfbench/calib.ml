(* Host-drift calibration kernel.  Run as its own process by the
   benchmark between passes: a fresh heap every time, and no repo code,
   so a change to the system under test can never change this number.
   The kernel is allocation-heavy on purpose (string keys, a growing
   hash table, lookups): it is slowed by the same memory and CPU
   contention that slows the workloads.  One run of 150k keys tracked
   the adjacent workload's speed best (correlation 0.83 on a compiled
   10^5-row execution; a 50k-key run, 0.15).  Prints its time in ms. *)

let keys = 150_000

let kernel () =
  let t0 = Perfbench.Clock.now () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to keys - 1 do
    Hashtbl.replace tbl ("key-" ^ string_of_int (i * 7919)) i
  done;
  let sum = ref 0 in
  for i = 0 to keys - 1 do
    match Hashtbl.find_opt tbl ("key-" ^ string_of_int (i * 7919)) with
    | Some v -> sum := !sum + v
    | None -> ()
  done;
  if !sum <> keys * (keys - 1) / 2 then failwith "calibration kernel: bad sum";
  (Perfbench.Clock.now () -. t0) *. 1e3

let () = Printf.printf "%.6f\n" (kernel ())
