(** Native differential oracle (see the interface). *)

module Cc = Simd_emit.Cc
module Backend = Simd_emit.Backend
module Cas = Simd_support.Cas
module Case = Simd_fuzz.Case
module Oracle = Simd_fuzz.Oracle
module Driver = Simd_codegen.Driver
module Machine = Simd_machine.Config
module Sim_run = Simd_sim.Run

type t = {
  cc : Cc.t;
  flags : string;
  cas : Cas.t;
  backends : Backend.id list;
}

let cas t = t.cas
let backends t = t.backends

let cache_stats t =
  let s = Cas.stats t.cas in
  (s.Cas.hits, s.Cas.misses)

let create ?cc ?(flags = "-O1") ?backends ?(cache_dir = "_harness_cache")
    ?max_entries () : (t, string) result =
  match (cc, Cc.find ()) with
  | Some cc, _ | None, Some cc ->
    let backends =
      match backends with
      | Some bs -> bs
      | None ->
        (* every backend whose probe binary runs on this machine —
           Toolchain_only backends compile but would die (SIGILL) *)
        List.filter
          (fun b -> Backend.probe ~cc b = Backend.Supported)
          Backend.all
    in
    Ok { cc; flags; cas = Cas.create ?max_entries ~dir:cache_dir (); backends }
  | None, None -> Error "no C compiler found (tried $SIMD_CC, gcc, cc, clang)"

(* ------------------------------------------------------------------ *)
(* Harness emission                                                    *)
(* ------------------------------------------------------------------ *)

let case_setup (case : Case.t) (config : Driver.config) =
  let trip =
    match case.Case.program.Simd_loopir.Ast.loop.Simd_loopir.Ast.trip with
    | Simd_loopir.Ast.Trip_const _ -> None
    | Simd_loopir.Ast.Trip_param _ -> case.Case.trip
  in
  Sim_run.prepare ~seed:case.Case.setup_seed ?trip
    ~machine:config.Driver.machine case.Case.program

(* ------------------------------------------------------------------ *)
(* Compile cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-backend flags: the oracle's base flags plus the backend's ISA
   flags ([-mavx2], ...). They are part of the cache key — the same C
   source compiled with different ISA flags is a different binary. *)
let flags_for t backend =
  String.concat " " (t.flags :: Backend.cflags backend)

(* The cache key covers everything that determines the binary: compiler
   identity, flags, and the full C source ({!Simd_support.Cas.key}). *)
let cache_key t ~flags src = Cas.key [ "harness"; Cc.id t.cc; flags; src ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(** [compiled_exe t ~flags src] — path of the compiled harness, compiling
    on a cache miss. Concurrency, atomicity, and eviction are the store's
    ({!Simd_support.Cas.build_raw}); the C source is kept as a sibling
    blob entry for debuggability. *)
let compiled_exe t ~flags src : (string, string) result =
  let key = cache_key t ~flags src in
  Cas.build_raw t.cas ~key (fun tmp_exe ->
      let c_file = tmp_exe ^ ".c" in
      write_file c_file src;
      Cas.store t.cas ~key:(key ^ "src") src;
      Fun.protect
        ~finally:(fun () -> try Sys.remove c_file with Sys_error _ -> ())
        (fun () ->
          match Cc.compile t.cc ~flags ~src:c_file ~exe:tmp_exe () with
          | Ok () ->
            (* temp_file created the name 0o600; the linker may keep that *)
            (try Unix.chmod tmp_exe 0o755 with Unix.Unix_error _ -> ());
            Ok ()
          | Error _ as e -> e))

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with _ -> ""

(** Run a compiled harness; [Ok ()] when it printed OK and exited 0,
    [Error tail] with its output otherwise. *)
let run_exe exe : (unit, string) result =
  let log = Filename.temp_file "simd_native" ".log" in
  let code =
    Sys.command
      (Printf.sprintf "%s >%s 2>&1" (Filename.quote exe) (Filename.quote log))
  in
  let out = String.trim (read_file log) in
  (try Sys.remove log with Sys_error _ -> ());
  if code = 0 then Ok ()
  else
    Error
      (Printf.sprintf "exit %d%s" code
         (if out = "" then "" else ": " ^ out))

(* ------------------------------------------------------------------ *)
(* Per-backend verdicts                                                *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Agrees  (** harness printed OK and exited 0 *)
  | Mismatch of string  (** harness detected a byte difference *)
  | Cc_failed of string  (** the backend's unit did not compile *)
  | Not_applicable of string
      (** the backend does not support the case's vector length *)

(* One backend against an already-simdized case. *)
let backend_verdict t backend ~setup (o : Driver.outcome) : verdict =
  let vl = Machine.vector_len o.Driver.config.Driver.machine in
  if not (Backend.supports_vl backend vl) then
    Not_applicable (Printf.sprintf "does not support V = %d" vl)
  else
    let src =
      Backend.harness_for backend ~layout:setup.Sim_run.layout
        ~params:setup.Sim_run.params ~trip:setup.Sim_run.trip o.Driver.prog
    in
    match compiled_exe t ~flags:(flags_for t backend) src with
    | Error m -> Cc_failed m
    | Ok exe -> ( match run_exe exe with Ok () -> Agrees | Error m -> Mismatch m)

(* ------------------------------------------------------------------ *)
(* The cross-checking oracle                                           *)
(* ------------------------------------------------------------------ *)

(* One checked compilation feeds both oracles: the simulator verdict is
   {!Oracle.classify} of it, and every harness is emitted from its
   program. *)
let check_exn t (case : Case.t) : Oracle.outcome =
  match Driver.simdize ~check:true case.Case.config case.Case.program with
  | exception e -> Oracle.Crash ("native: " ^ Printexc.to_string e)
  | Driver.Scalar _ as r -> Oracle.classify case r
  | Driver.Simdized o as r -> (
    let setup = case_setup case o.Driver.config in
    (* Every selected backend that supports the case's V runs natively;
       the rest are skipped (not failed). *)
    let verdicts =
      List.filter_map
        (fun b ->
          match backend_verdict t b ~setup o with
          | Not_applicable _ -> None
          | v -> Some (b, v))
        t.backends
    in
    let failed_cc =
      List.filter_map
        (fun (b, v) ->
          match v with Cc_failed m -> Some (Backend.name b ^ ": " ^ m) | _ -> None)
        verdicts
    in
    let mismatches =
      List.filter_map
        (fun (b, v) ->
          match v with Mismatch m -> Some (Backend.name b ^ ": " ^ m) | _ -> None)
        verdicts
    in
    let sim = Oracle.classify case r in
    match sim with
    | _ when failed_cc <> [] ->
      Oracle.Crash
        ("native: harness compilation failed: " ^ String.concat "; " failed_cc)
    | Oracle.Pass when mismatches = [] -> Oracle.Pass
    | Oracle.Pass ->
      Oracle.Divergence
        ("native harness mismatch ("
        ^ String.concat "; " mismatches
        ^ ") where the simulator passed")
    | Oracle.Divergence m when mismatches = [] ->
      Oracle.Divergence
        ("simulator divergence (" ^ m ^ ") where the native harnesses agreed")
    | Oracle.Divergence m ->
      Oracle.Divergence
        ("both oracles diverged: simulator: " ^ m ^ "; native: "
        ^ String.concat "; " mismatches)
    | (Oracle.Skipped _ | Oracle.Static_violation _ | Oracle.Crash _) -> sim)

let check t case =
  try check_exn t case
  with e -> Oracle.Crash ("native: " ^ Printexc.to_string e)
