(** The differential oracle: compile one fuzz case once, under the
    pass-boundary verifier, then run that compilation and the scalar
    interpreter on identical noise-filled memory (via
    {!Simd_bench.Measure.verify_outcome}) and classify the outcome.

    [Pass] — byte-identical arenas (including the guard-fallback path for
    trips below the [3B] bound). [Skipped] — the driver legitimately left
    the loop scalar (trip guard with a compile-time bound, peeling baseline
    refusals). [Static_violation] — the pass-boundary verifier
    ({!Simd_check.Check}, read first) refuted an alignment or
    well-formedness invariant: a miscompilation caught without executing
    anything. [Divergence] — the simdized execution produced different
    memory than the scalar oracle: a miscompilation. [Crash] — the compiler
    or simulator raised: an internal invariant broke. *)

module Driver = Simd_codegen.Driver
module Measure = Simd_bench.Measure

type outcome =
  | Pass
  | Skipped of string
  | Static_violation of string
  | Divergence of string
  | Crash of string

let is_failure = function
  | Pass | Skipped _ -> false
  | Static_violation _ | Divergence _ | Crash _ -> true

(** [same_class a b] — same outcome constructor (shrinking preserves the
    failure class, not the exact message). *)
let same_class a b =
  match (a, b) with
  | Pass, Pass -> true
  | Skipped _, Skipped _ -> true
  | Static_violation _, Static_violation _ -> true
  | Divergence _, Divergence _ -> true
  | Crash _, Crash _ -> true
  | _ -> false

let outcome_name = function
  | Pass -> "pass"
  | Skipped _ -> "skipped"
  | Static_violation _ -> "static_violation"
  | Divergence _ -> "divergence"
  | Crash _ -> "crash"

let pp_outcome fmt = function
  | Pass -> Format.pp_print_string fmt "pass"
  | Skipped m -> Format.fprintf fmt "skipped (%s)" m
  | Static_violation m -> Format.fprintf fmt "STATIC VIOLATION: %s" m
  | Divergence m -> Format.fprintf fmt "DIVERGENCE: %s" m
  | Crash m -> Format.fprintf fmt "CRASH: %s" m

(* The first error-severity violation of a checked compilation, prefixed
   with the boundary that introduced it. Warnings do not fail a case. *)
let first_error (o : Driver.outcome) : string option =
  List.find_map
    (fun (boundary, (v : Driver.Check.violation)) ->
      if v.Driver.Check.severity = Driver.Check.Error then
        Some
          (Printf.sprintf "at %s: %s" boundary
             (Driver.Check.violation_to_string v))
      else None)
    (Driver.check_violations o)

(** [classify case result] — the verdict on one [~check:true] compilation
    of [case]: a refuted invariant first (a miscompilation even when the
    arenas happen to agree), then the differential on that same
    compilation. Simulator exceptions are folded into [Crash]. *)
let classify (c : Case.t) : Driver.result -> outcome = function
  | Driver.Scalar r ->
    Skipped (Format.asprintf "not simdized: %a" Driver.pp_reason r)
  | Driver.Simdized o -> (
    match first_error o with
    | Some msg -> Static_violation msg
    | None -> (
      match
        Measure.verify_outcome ~setup_seed:c.Case.setup_seed ?trip:c.Case.trip
          c.Case.program o
      with
      | Ok () -> Pass
      | Error m -> Divergence m
      | exception e -> Crash (Printexc.to_string e)))

(** [run case] — compile once with the verifier on and {!classify}. Never
    raises: a compiler or verifier exception is a [Crash]. *)
let run (c : Case.t) : outcome =
  match Driver.simdize ~check:true c.Case.config c.Case.program with
  | r -> classify c r
  | exception e -> Crash (Printexc.to_string e)
