(** Shared C-compiler discovery: one probe for every consumer that compiles
    emitted C — the gcc integration tests and the native differential
    oracle ({!Simd_par.Native}).

    The probe tries [$SIMD_CC] (when set and non-empty), then [gcc], [cc],
    [clang], and caches the first hit for the whole process, so a test
    suite or fuzz campaign pays for discovery once. *)

type t
(** A discovered, working C compiler. *)

val path : t -> string
(** The command name or path the probe found. *)

val id : t -> string
(** A stable identifier for cache keys (currently the command name). *)

val find : unit -> t option
(** The process-wide cached probe result. [None]: no C compiler on PATH. *)

val compile :
  t -> ?flags:string -> src:string -> exe:string -> unit -> (unit, string) result
(** [compile t ~src ~exe ()] — compile one translation unit to an
    executable (default [flags] ["-O1"]). [Error] carries the compiler
    invocation and the tail of its diagnostic output. *)
