(** Differential oracle: scalar interpreter vs. simdized execution on
    identical memory, with outcomes classified for the fuzzer. *)

type outcome =
  | Pass  (** byte-identical arenas *)
  | Skipped of string  (** legitimately left scalar *)
  | Static_violation of string
      (** the pass-boundary verifier refuted an invariant *)
  | Divergence of string  (** miscompilation: arenas differ *)
  | Crash of string  (** compiler/simulator raised *)

val is_failure : outcome -> bool
val same_class : outcome -> outcome -> bool
val outcome_name : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

val classify : Case.t -> Simd_codegen.Driver.result -> outcome
(** The verdict on one [~check:true] compilation of the case:
    [Skipped] on scalar fallback, [Static_violation] on the first
    error-severity violation, else the differential of that same
    compilation against the scalar interpreter ([Pass] / [Divergence];
    a simulator exception is a [Crash]). *)

val run : Case.t -> outcome
(** Compile the case once with [~check:true] and {!classify} it; a
    compiler or verifier exception is a [Crash]. Never raises. *)
