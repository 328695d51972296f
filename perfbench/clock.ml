external now : unit -> float = "perfbench_now"
(** Monotonic clock, in seconds. *)
