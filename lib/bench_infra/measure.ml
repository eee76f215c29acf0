(** Operations-per-datum and speedup measurement (paper §5.3).

    "The metric being used is operations per datum (OPD), namely the number
    of operations needed to compute a single data element. … When reporting
    measurements for the compiler-generated codes, the operations per datum
    metric includes all overhead present in the execution of the real code,
    including a single function call and return, address computation, and
    loop overhead."

    The cost model charges every dynamically executed vector operation at
    weight 1, plus configurable per-iteration loop overhead and a one-time
    call/setup cost. Register copies default to weight 0 because the paper's
    pipeline explicitly runs "loop unrolling that removes needless copy
    operations" after simdization. *)

open Simd_loopir

type weights = {
  copy : float;  (** pipelining/commoning carries (removed by unrolling) *)
  loop_overhead : float;  (** per steady iteration: index update + branch *)
  setup : float;  (** one-time: call, return, address setup *)
}

let default_weights = { copy = 0.0; loop_overhead = 2.0; setup = 5.0 }

(** One measured loop under one configuration. *)
type sample = {
  program : Ast.program;
  config : Simd_codegen.Driver.config;
  counts : Simd_sim.Exec.counts;
  scalar : Interp.counts;  (** ideal scalar reference *)
  lb : Lb.t;
  data : int;  (** stored elements: s * trip *)
  policies_used : Simd_dreorg.Policy.t list;
  fallback : bool;  (** trip-guard fallback hit (should not happen in benches) *)
}

(** [total_simd_ops ?weights sample] — the charged dynamic operation count
    of the simdized execution. *)
let total_simd_ops ?(weights = default_weights) (s : sample) =
  let c = s.counts in
  float_of_int
    (c.Simd_sim.Exec.vloads + c.Simd_sim.Exec.vstores + c.Simd_sim.Exec.vops
   + c.Simd_sim.Exec.vsplats + c.Simd_sim.Exec.vshifts + c.Simd_sim.Exec.vsplices
   + c.Simd_sim.Exec.vpacks + c.Simd_sim.Exec.scalar_ops)
  +. (weights.copy *. float_of_int c.Simd_sim.Exec.copies)
  +. (weights.loop_overhead *. float_of_int c.Simd_sim.Exec.steady_iterations)
  +. weights.setup

(** [opd ?weights sample] — measured operations per datum. *)
let opd ?weights (s : sample) = total_simd_ops ?weights s /. float_of_int s.data

(** [shifts_per_datum sample] — measured reorganization ops per datum
    (vshiftpair; prologue/epilogue splices count as reorganization too). *)
let shifts_per_datum (s : sample) =
  float_of_int
    (s.counts.Simd_sim.Exec.vshifts + s.counts.Simd_sim.Exec.vsplices
   + s.counts.Simd_sim.Exec.vpacks)
  /. float_of_int s.data

(** [speedup ?weights sample] — ideal scalar operation count divided by the
    charged simdized count (the paper's footnote 7). *)
let speedup ?weights (s : sample) =
  float_of_int (Interp.total_ops s.scalar) /. total_simd_ops ?weights s

(** [lb_speedup sample] — the upper-bound speedup implied by the analytic
    lower bound: SEQ opd / LB opd. *)
let lb_speedup (s : sample) =
  let analysis =
    Analysis.check_exn ~machine:s.config.Simd_codegen.Driver.machine s.program
  in
  Lb.seq_opd ~analysis /. Lb.opd s.lb

exception Not_simdized of string

(** [run ~config ?setup_seed program] — simdize and execute one loop,
    gathering everything a table row needs. The trip count must be large
    enough to clear the [3B] guard. Raises {!Not_simdized} when the driver
    falls back to scalar code. *)
let of_outcome ?(setup_seed = 0x5EED) ?trip (program : Ast.program)
    (o : Simd_codegen.Driver.outcome) : sample =
  let config = o.Simd_codegen.Driver.config in
  let setup =
    Simd_sim.Run.prepare ~seed:setup_seed ?trip
      ~machine:config.Simd_codegen.Driver.machine program
  in
  let scalar, _ = Simd_sim.Run.run_scalar setup in
  let r = Simd_sim.Run.run_simd setup o.Simd_codegen.Driver.prog in
  let analysis = o.Simd_codegen.Driver.analysis in
  (* LB reflects the zero-shift accounting when every statement fell back
     to zero-shift (runtime alignments), per §5.3. *)
  let lb_policy =
    if
      List.for_all
        (fun p -> p = Simd_dreorg.Policy.Zero)
        o.Simd_codegen.Driver.policies_used
    then Simd_dreorg.Policy.Zero
    else config.Simd_codegen.Driver.policy
  in
  {
    program;
    config;
    counts = r.Simd_sim.Run.counts;
    scalar;
    lb = Lb.compute ~analysis ~policy:lb_policy;
    data = List.length program.Ast.loop.Ast.body * setup.Simd_sim.Run.trip;
    policies_used = o.Simd_codegen.Driver.policies_used;
    fallback = r.Simd_sim.Run.fallback_counts <> None;
  }

let run ~(config : Simd_codegen.Driver.config) ?setup_seed ?trip
    (program : Ast.program) : sample =
  match Simd_codegen.Driver.simdize config program with
  | Simd_codegen.Driver.Scalar r ->
    raise (Not_simdized (Format.asprintf "%a" Simd_codegen.Driver.pp_reason r))
  | Simd_codegen.Driver.Simdized o -> of_outcome ?setup_seed ?trip program o

(** [verify_outcome ?setup_seed ?trip program o] — the differential check
    of an already-simdized compilation: scalar interpreter and [o.prog] on
    identical noise-filled memory, whole arenas compared. The twin of
    {!of_outcome}. *)
let verify_outcome ?(setup_seed = 0x5EED) ?trip (program : Ast.program)
    (o : Simd_codegen.Driver.outcome) : (unit, string) result =
  let setup =
    Simd_sim.Run.prepare ~seed:setup_seed ?trip
      ~machine:o.Simd_codegen.Driver.config.Simd_codegen.Driver.machine program
  in
  match Simd_sim.Run.verify setup o.Simd_codegen.Driver.prog with
  | Ok () -> Ok ()
  | Error m -> Error (Format.asprintf "%a" Simd_sim.Run.pp_mismatch m)

(** [verify ~config program] — simdize, then {!verify_outcome}; a scalar
    fallback is an [Error] starting ["not simdized"]. *)
let verify ~(config : Simd_codegen.Driver.config) ?setup_seed ?trip
    (program : Ast.program) : (unit, string) result =
  match Simd_codegen.Driver.simdize config program with
  | Simd_codegen.Driver.Scalar r ->
    Error (Format.asprintf "not simdized: %a" Simd_codegen.Driver.pp_reason r)
  | Simd_codegen.Driver.Simdized o ->
    verify_outcome ?setup_seed ?trip program o
