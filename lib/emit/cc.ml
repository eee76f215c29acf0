(** Shared C-compiler discovery (see the interface). Probing shells out to
    [command -v], which is POSIX and quiet; compilation redirects
    diagnostics to a log file next to the output so a failure message can
    quote them. *)

type t = { cc_path : string }

let path t = t.cc_path
let id t = t.cc_path

let works name =
  Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" (Filename.quote name))
  = 0

let probe () =
  let candidates =
    match Sys.getenv_opt "SIMD_CC" with
    | Some cc when cc <> "" -> [ cc; "gcc"; "cc"; "clang" ]
    | _ -> [ "gcc"; "cc"; "clang" ]
  in
  List.find_map (fun name -> if works name then Some { cc_path = name } else None)
    candidates

let cache = lazy (probe ())
let find () = Lazy.force cache

let read_tail path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let keep = min len 2000 in
    seek_in ic (len - keep);
    let s =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic keep)
    in
    String.trim s
  with _ -> ""

let compile t ?(flags = "-O1") ~src ~exe () =
  let log = exe ^ ".cc.log" in
  let cmd =
    Printf.sprintf "%s %s -o %s %s 2>%s" (Filename.quote t.cc_path) flags
      (Filename.quote exe) (Filename.quote src) (Filename.quote log)
  in
  if Sys.command cmd = 0 then begin
    (try Sys.remove log with Sys_error _ -> ());
    Ok ()
  end
  else
    let diag = read_tail log in
    Error
      (Printf.sprintf "%s failed%s" cmd
         (if diag = "" then "" else ":\n" ^ diag))
