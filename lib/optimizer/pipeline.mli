(** The end-to-end optimizer: OQL → AQUA → KOLA → COKO normalization and
    hidden-join untangling → cost-based choice among candidate plans
    (original vs untangled × eager vs deferred dedup), each costed under
    the hashed interpreter on {!Cost.sample} of the database.

    The {!report} is an explanation artifact: each phase records its
    output, and the trace names every rule fired. *)

type plan = {
  label : string;  (** "original" or "untangled" *)
  query : Kola.Term.query;
  backend : Kola.Eval.backend;  (** always [Hashed] *)
  dedup : Kola.Eval.dedup;
      (** deferred only offered for aggregate-free plans *)
  cost : Cost.t;
}

type report = {
  source : string option;
  aqua : Aqua.Ast.expr;
  translated : Kola.Term.query;
  normalized : Kola.Term.query;
  untangled : Kola.Term.query option;
  trace : Rewrite.Engine.trace;
  blocks : (string * bool) list;
  candidates : plan list;
  chosen : plan;
  cost_cache_hits : int;
      (** plan-cache hits while costing this report's candidates *)
  cost_cache_misses : int;  (** candidate evaluations actually run *)
  costed_on : (string * int * int) list;
      (** [(extent, sampled rows, total rows)] every candidate was costed
          on: {!Cost.costed_on} of the database *)
}

val backend_name : Kola.Eval.backend -> string
val dedup_name : Kola.Eval.dedup -> string

val contains_agg : Kola.Term.func -> bool
(** Whether a plan observes intermediate multiplicities (has an
    aggregate), which disables the deferred-dedup dimension. *)

val optimize :
  ?source:string ->
  ?plan_cache:Cost.plan_cache ->
  db:(string * Kola.Value.t) list ->
  Aqua.Ast.expr ->
  report
(** [plan_cache] defaults to one cache shared across calls, so repeated
    measurements of canonically-equal plans hit the memo; the report
    carries this call's hit/miss deltas.  The translate, normalize,
    untangle and costing phases record the Telemetry spans
    [pipeline.translate], [pipeline.normalize], [pipeline.untangle] and
    [pipeline.cost]. *)

val optimize_oql :
  ?extents:string list ->
  ?plan_cache:Cost.plan_cache ->
  db:(string * Kola.Value.t) list ->
  string ->
  report
(** @raise Oql.Parser.Error on bad input. *)

val run : db:(string * Kola.Value.t) list -> report -> Kola.Value.t
(** Execute the chosen plan. *)

val execute :
  ?backend:Kola_exec.Exec.backend ->
  ?layout:Kola_exec.Exec.layout ->
  ?jobs:int ->
  ?pool:Kola_parallel.Pool.t ->
  ?coldb:Kola.Colstore.db ->
  db:(string * Kola.Value.t) list ->
  report ->
  Kola.Value.t * Kola_exec.Exec.stats
(** Execute the chosen plan through a {!Kola_exec.Exec} backend.  The
    default is the interpreter backend the optimizer chose;
    [~backend:Compiled] runs the fused-loop closures instead, falling
    back to the interpreter on unsupported plans (recorded in the
    stats).  Dedup always follows the chosen plan.  [layout], [jobs],
    [pool] and [coldb] are forwarded to {!Kola_exec.Exec.run}: under
    [Columnar] the compiled backend binds extent scans to the columnar
    store and fans pure kernels out over morsels. *)

val pp_costed_on : (string * int * int) list Fmt.t
(** [costed on 1000/10000 rows of E, 4/40 rows of D]: a report's
    {!report.costed_on}. *)

val pp_report : report Fmt.t
