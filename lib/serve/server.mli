(** The "serve many" half: a long-lived compile server over
    newline-delimited JSON ({!Protocol}), batching, caching, and
    isolating requests.

    {b Batching}: the server blocks for one request line, then drains
    whatever further lines are already available (up to [max_batch]) and
    processes them as one batch. Within a batch, requests with the same
    cache key are compiled once. Responses always come back in request
    order.

    {b Caching}: with a store attached, every compile outcome is served
    from / written to the content-addressed artifact cache
    ({!Compile.run_cached}'s key). Because outcomes are deterministic, a
    hit is byte-identical to a recompile — cache state never shows in
    responses, only in telemetry.

    {b Isolation}: with [jobs ≥ 2], cache misses are compiled in forked
    workers from the {!Simd_par.Pool} with a per-request wall-clock
    [timeout] — a pathological program crashes or times out its worker
    and earns an error response; the server and the rest of the batch
    are unaffected. [jobs ≤ 1] compiles inline (fastest for trusted
    input, no isolation).

    {b Observability}: per-request latency, batch/queue depth, outcome
    and cache counters, pool utilization — snapshot via {!telemetry}
    (JSON, schema [simd-serve/1]) or the [{"op":"stats"}] protocol
    request; batches also land as timed {!Simd_trace.Trace} notes. *)

module Json = Simd_support.Json
module Cas = Simd_support.Cas

type t

val create :
  ?jobs:int ->
  ?timeout:float ->
  ?max_batch:int ->
  ?cache:Cas.t ->
  ?trace:Simd_trace.Trace.t ->
  unit ->
  t
(** Defaults: [jobs = 1] (inline compilation), [timeout = 30.] seconds
    per pooled request (ignored inline), [max_batch = 64], no cache, no
    trace. *)

val telemetry : t -> Json.t
(** Deterministic counters plus wall-clock data (latency percentiles,
    uptime) — the [{"op":"stats"}] response body. *)

val handle_batch : t -> string list -> string list * bool
(** [handle_batch t lines] — responses (one per line, in order) and
    whether a shutdown request was seen. The core the I/O loops drive;
    exposed for the in-process tests and the bench harness. *)

val serve_fd : t -> Unix.file_descr -> Unix.file_descr -> [ `Eof | `Shutdown ]
(** Serve one connection: read request lines from the first descriptor,
    write response lines to the second, until EOF or [{"op":"shutdown"}].
    Pipe mode is [serve_fd t Unix.stdin Unix.stdout]. *)

val listen_unix : t -> path:string -> unit
(** Unix-domain-socket mode: bind [path] (replacing a stale socket file)
    and serve every accepted connection concurrently — connections are
    select-multiplexed in one process, each with its own reader state, so
    batching stays per-client. Each readiness sweep serves at most one
    batch per connection, so a client that pipelines many requests cannot
    starve the others. A client that disconnects mid-batch, sends
    a malformed stream, or provokes an exception only ends its own
    connection; [{"op":"shutdown"}] from any client stops the daemon
    (removing the socket). *)
