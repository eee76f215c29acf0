(** The simdization driver: analysis → (reassociation) → shift placement →
    code generation → optimization passes → epilogue derivation.

    Pass a {!Simd_trace.Trace} sink via [?trace] to record every decision
    of a compilation — reassociation, per-statement shift-placement
    provenance, the generated IR, and one event per optimization stage
    with pre/post snapshots. Tracing is zero-cost when the sink is
    {!Simd_trace.Trace.none} (the default). *)

open Simd_loopir
open Simd_vir
module Policy = Simd_dreorg.Policy
module Graph = Simd_dreorg.Graph
module Trace = Simd_trace.Trace
module Check = Simd_check.Check

(** Cross-iteration reuse strategy (§5.5). *)
type reuse = No_reuse | Predictive_commoning | Software_pipelining
[@@deriving show, eq]

val reuse_name : reuse -> string

type config = {
  machine : Simd_machine.Config.t;
  policy : Policy.t;
  reuse : reuse;
  memnorm : bool;
  reassoc : bool;
  cse : bool;
  hoist_splats : bool;
  unroll : int;  (** ≥ 1; 2 removes depth-1 pipelining copies (§4.5) *)
  specialize_epilogue : bool;
  peel_baseline : bool;  (** prior-work baseline: require peeling applicability *)
  cleanup : bool;
      (** dataflow-backed VIR cleanup after placement
          ({!Passes.vir_cleanup}) *)
}

val default : config
(** 16-byte machine, dominant-shift, software pipelining, MemNorm + CSE +
    splat hoisting on, no reassociation, no unrolling. *)

val reuse_of_name : string -> reuse option
(** Inverts {!reuse_name}; also accepts ["none"] for [No_reuse]. *)

(** {1 The knob vocabulary}

    Every tool that names, prints, parses or toggles configuration reads
    these two tables: the reproducer-header and cache-key text codec, the
    serve JSON codec, pass gating in {!run_passes}, fuzz bisection and
    shrinking. *)

type _ kind = Bool : bool kind | Int : int kind | Name : string kind

(** One config field: its key in [key=value] text and JSON, and a typed
    getter and setter. [set] rejects values the field cannot hold (a
    vector length that is not a power of two, an unknown policy name). *)
type field =
  | Field : {
      key : string;
      kind : 'a kind;
      get : config -> 'a;
      set : 'a -> config -> (config, string) result;
    }
      -> field

val fields : field list
(** Every config field, in header order
    ([vl policy reuse memnorm reassoc cse hoist unroll specialize peel
    cleanup]). *)

val find_field : string -> field option
(** The field with this key, if any. *)

val config_to_string : config -> string
(** [key=value] for every field, space-separated, booleans as [0]/[1] —
    the reproducer header and the serve cache key. Two configs are equal
    iff their strings are. *)

val config_of_string : ?base:config -> string -> (config, string) result
(** Apply space-separated [key=value] tokens over [base] (default
    {!default}). Booleans accept [0]/[1]/[false]/[true]. Inverts
    {!config_to_string}. *)

(** One config-gated pass: its trace and bisection name, a one-line
    charter, whether a configuration runs it, and that configuration with
    it turned off. *)
type knob = {
  name : string;
  doc : string;
  on : config -> bool;
  off : config -> config;
}

val knobs : knob list
(** The config-gated passes in application order: [reassoc hoist_splats
    memnorm cse predictive_commoning unroll specialize_epilogue
    vir_cleanup]. [reassoc] rewrites the scalar AST before placement; the
    rest transform the generated vector IR. *)

type reason =
  | Illegal of Analysis.error
  | Trip_too_small of { trip : int; needed : int }
  | Peeling_inapplicable of Peel.verdict

val pp_reason : Format.formatter -> reason -> unit

type outcome = {
  prog : Prog.t;
  analysis : Analysis.t;
  graphs : (Ast.stmt * Graph.t) list;
  policies_used : Policy.t list;
      (** per statement; [Zero] where runtime alignments forced the
          fallback (§4.4) *)
  shared_streams : Simd_opt.Joint.shared list;
      (** reorganization chains occurring in more than one placed graph —
          one shared [vshiftstream] after value numbering. Detected under
          every policy; [joint] steers placement toward them. *)
  config : config;
  checks : (string * Check.result) list;
      (** static-verifier results per pass boundary (pipeline order) when
          compiled with [~check:true]; each boundary holds only the
          violations first observed there, so the boundary name is the
          offending pass. Empty when checking was off. *)
}

type result = Simdized of outcome | Scalar of reason

(** The pass-pipeline state threaded through {!run_passes}: the three IR
    regions a pass may rewrite (epilogues stay empty until derived). *)
type pstate = {
  st_prologue : Expr.stmt list;
  st_body : Expr.stmt list;
  st_epilogues : Expr.stmt list list;
}

val run_passes :
  ?trace:Trace.t ->
  ?on_stage:(name:string -> pstate -> unit) ->
  config ->
  analysis:Analysis.t ->
  Prog.t ->
  Prog.t
(** The optimization-pass pipeline alone (hoisting, MemNorm, CSE,
    predictive commoning, unrolling, epilogue derivation, reduction
    finalization, DCE) applied to a freshly generated program.
    [on_stage] fires after every stage with the pipeline state — the
    driver's own boundary checking and {!Retarget}'s re-instantiation
    both hang off it. *)

val simdize : ?trace:Trace.t -> ?check:bool -> config -> Ast.program -> result
(** The whole pipeline. [?trace] (default {!Simd_trace.Trace.none})
    receives the ordered event stream of this compilation. [?check]
    (default [false]) re-runs the static verifier ({!Simd_check.Check}) on
    the placed graphs, the generated IR, after every optimization stage,
    and on the final program — recording per-boundary results in
    [outcome.checks] (and, when tracing, as [Trace.Check] events). *)

val simdize_exn :
  ?trace:Trace.t -> ?check:bool -> config -> Ast.program -> outcome
(** [simdize] that raises on scalar fallback (tests). *)

val check_violations : outcome -> (string * Check.violation) list
(** All static-verifier violations of a [~check:true] compilation in
    boundary order, each paired with the pass boundary that first surfaced
    it (empty for clean or check-free compilations). *)

val check_facts : outcome -> Check.facts
(** Total proof obligations discharged across all boundaries. *)

val report : outcome -> Simd_opt.Report.t
(** The compilation's static cost report: per-statement streams, chosen
    shifts, operation counts, weighted cost, and the cost under every other
    placeable policy. *)
