(** Operations-per-datum and speedup measurement (§5.3): every dynamic
    vector operation at weight 1, plus configurable loop overhead and
    one-time setup; register copies default to weight 0 (the paper's
    pipeline unrolls them away — so does ours, see the ablations). *)

open Simd_loopir

type weights = { copy : float; loop_overhead : float; setup : float }

val default_weights : weights
(** copy 0, loop_overhead 2, setup 5. *)

type sample = {
  program : Ast.program;
  config : Simd_codegen.Driver.config;
  counts : Simd_sim.Exec.counts;
  scalar : Interp.counts;
  lb : Lb.t;
  data : int;
  policies_used : Simd_dreorg.Policy.t list;
  fallback : bool;
}

val total_simd_ops : ?weights:weights -> sample -> float
val opd : ?weights:weights -> sample -> float
val shifts_per_datum : sample -> float

val speedup : ?weights:weights -> sample -> float
(** Ideal scalar count / charged simdized count (paper footnote 7). *)

val lb_speedup : sample -> float
(** The bound-implied ceiling: SEQ opd / LB opd. *)

exception Not_simdized of string

val of_outcome :
  ?setup_seed:int ->
  ?trip:int ->
  Ast.program ->
  Simd_codegen.Driver.outcome ->
  sample
(** Execute an already-simdized compilation (e.g. a
    {!Simd_codegen.Retarget} result at another V) against [program]'s
    scalar reference on the outcome's own machine. {!run} is
    [Driver.simdize] followed by this. *)

val run :
  config:Simd_codegen.Driver.config ->
  ?setup_seed:int ->
  ?trip:int ->
  Ast.program ->
  sample
(** Simdize and execute one loop. Raises {!Not_simdized} on scalar
    fallback. *)

val verify_outcome :
  ?setup_seed:int ->
  ?trip:int ->
  Ast.program ->
  Simd_codegen.Driver.outcome ->
  (unit, string) result
(** Differential check of an already-simdized compilation: run
    [program]'s scalar reference and the outcome's vector program on
    identical memory and diff the whole arena. The twin of
    {!of_outcome}. *)

val verify :
  config:Simd_codegen.Driver.config ->
  ?setup_seed:int ->
  ?trip:int ->
  Ast.program ->
  (unit, string) result
(** [Driver.simdize] followed by {!verify_outcome}; a scalar fallback is
    an [Error] starting ["not simdized"]. *)
