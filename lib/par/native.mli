(** Native differential oracle: compile the self-checking harness of a
    fuzz case for {e every selected backend} with the discovered C
    compiler ({!Simd_emit.Cc}), run the executables, and cross-check
    their verdicts against the simulator oracle ({!Simd_fuzz.Oracle}).

    The harnesses ({!Simd_emit.Portable.harness_with} over each backend's
    unit) place arrays exactly like the simulator's layout, fill the
    arena with the same deterministic noise, run scalar and simdized
    kernels, and byte-compare — so a native run checks the whole emission
    path (C backend, real compiler, real hardware) against the same
    ground truth the simulator uses, once per backend.

    Backend selection defaults to the capability probe
    ({!Simd_emit.Backend.probe}): only [Supported] backends — whose probe
    binary actually runs on this CPU — are executed; a backend that does
    not support a case's vector length is skipped for that case, not
    failed. Compiled harnesses are cached in a {!Simd_support.Cas} store,
    keyed by the hash of the C source plus compiler identity and the
    {e per-backend} flags (the same source under [-mavx2] is a different
    binary): replaying a corpus or re-running a campaign recompiles
    nothing that was seen before. *)

type t
(** A ready native oracle: discovered compiler + artifact store +
    selected backends. *)

val create :
  ?cc:Simd_emit.Cc.t ->
  ?flags:string ->
  ?backends:Simd_emit.Backend.id list ->
  ?cache_dir:string ->
  ?max_entries:int ->
  unit ->
  (t, string) result
(** [create ()] — discover a compiler (or use [cc]) and open the store at
    [cache_dir] (default ["_harness_cache"]; created if missing). Default
    [flags]: ["-O1"] (per-backend ISA flags are appended automatically).
    [backends] defaults to every registry backend the capability probe
    classifies [Supported] on this machine. [max_entries] bounds the
    store (LRU; default unbounded, matching the historical behavior CI
    relies on). [Error] when no C compiler is on PATH. *)

val backends : t -> Simd_emit.Backend.id list
(** The backends this oracle exercises, in registry order. *)

val cas : t -> Simd_support.Cas.t
(** The underlying artifact store — its {!Simd_support.Cas.stats} carry
    the hit/miss/eviction/corruption counters telemetry reports. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of this oracle value so far (process-local). *)

val check : t -> Simd_fuzz.Case.t -> Simd_fuzz.Oracle.outcome
(** Classify one case by the simulator {e and} every applicable
    backend's native harness, both reading one [~check:true] compilation
    (the simulator verdict is {!Simd_fuzz.Oracle.classify} of it):

    - simulator pass + every native harness OK ⇒ [Pass];
    - any native harness mismatch while the simulator passes ⇒
      [Divergence] naming the backend(s) (an emission/compiler-facing bug
      the simulator cannot see);
    - simulator divergence ⇒ [Divergence] (annotated with whether the
      native harnesses agreed);
    - scalar fallback ⇒ [Skipped]; compile failure or either oracle
      raising ⇒ [Crash].

    Deterministic for a fixed compiler, backend set, and case; never
    raises. *)
