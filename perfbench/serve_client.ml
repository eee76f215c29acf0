(* A compile server in a child process and closed-loop clients that talk
   to it over its Unix-domain socket. The child is this executable
   re-run in server mode, so its peak memory is its own. *)

module Server = Simd.Serve.Server

(* Scratch files (sockets, artifact caches) live under one directory in
   the working tree, removed when the run ends. *)
let tmp_dir = "_perfbench_tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
    Filename.concat tmp_dir (Printf.sprintf "%s%d-%d" prefix (Unix.getpid ()) !n)

(* Server mode: serve until a shutdown request. [jobs = 1] compiles
   inline in the server process. *)
let serve_child ~socket ~cache =
  let cache = Simd.Cas.create ~dir:cache () in
  let server = Server.create ~jobs:1 ~cache () in
  Server.listen_unix server ~path:socket

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable partial : string;
  lines : string Queue.t;
}

type server = { pid : int; socket : string; conns : conn array }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read what is available on [c] into its line queue; false on EOF. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    let data = c.partial ^ Bytes.sub_string c.chunk 0 n in
    let parts = String.split_on_char '\n' data in
    let rec push = function
      | [ last ] -> c.partial <- last
      | x :: rest ->
        Queue.push x c.lines;
        push rest
      | [] -> c.partial <- ""
    in
    push parts;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec read_line c =
  if not (Queue.is_empty c.lines) then Queue.pop c.lines
  else if fill c then read_line c
  else failwith "server closed the connection"

let connect socket =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      { fd; chunk = Bytes.create 65536; partial = ""; lines = Queue.create () }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Start a server child with an empty cache and connect [clients]
   clients; returns once a ping round trip succeeded. *)
let start ~clients =
  let socket = fresh "s" ^ ".sock" in
  let cache = fresh "c" in
  flush_all ();
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-child"; socket; cache |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  match Array.init clients (fun _ -> connect socket) with
  | conns ->
    let s = { pid; socket; conns } in
    write_all conns.(0).fd "{\"op\":\"ping\"}\n";
    if read_line conns.(0) <> "{\"op\":\"pong\"}" then failwith "server did not answer ping";
    s
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    remove_tree cache;
    raise e

let stats s =
  write_all s.conns.(0).fd "{\"op\":\"stats\"}\n";
  read_line s.conns.(0)

(* Shut the child down, wait for it, and return its peak RSS in MiB. *)
let stop s =
  let hwm = Span.vm_hwm_mb (string_of_int s.pid) in
  (try
     write_all s.conns.(0).fd "{\"op\":\"shutdown\"}\n";
     ignore (read_line s.conns.(0))
   with _ -> (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  ignore (Unix.waitpid [] s.pid);
  (* the cache directory goes with the rest of [tmp_dir] when the run
     ends, so deleting it does not load the disk during later rounds *)
  (try Sys.remove s.socket with Sys_error _ -> ());
  hwm

(* Closed loop: every client keeps one request in flight. [next ()] gives
   the next request (an index and its line) or [None] to stop issuing;
   [on_response idx line latency_ms] sees every response. Returns when
   no request is in flight. *)
let closed_loop s ~next ~on_response =
  let inflight = Array.make (Array.length s.conns) None in
  let send i =
    match next () with
    | None -> inflight.(i) <- None
    | Some (idx, line) ->
      inflight.(i) <- Some (idx, Span.now_ns ());
      write_all s.conns.(i).fd (line ^ "\n")
  in
  Array.iteri (fun i _ -> send i) s.conns;
  let busy () = Array.exists Option.is_some inflight in
  while busy () do
    let fds =
      Array.to_list
        (Array.mapi (fun i c -> (i, c)) s.conns)
      |> List.filter (fun (i, _) -> inflight.(i) <> None)
    in
    let ready =
      List.filter (fun (_, c) -> not (Queue.is_empty c.lines)) fds
    in
    let ready =
      if ready <> [] then ready
      else
        match Unix.select (List.map (fun (_, c) -> c.fd) fds) [] [] (-1.) with
        | r, _, _ ->
          List.filter
            (fun (_, c) ->
              List.mem c.fd r && (fill c || failwith "server closed the connection"))
            fds
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun (i, c) ->
        if not (Queue.is_empty c.lines) then
          match inflight.(i) with
          | None -> ()
          | Some (idx, t0) ->
            let line = Queue.pop c.lines in
            let ms = Span.ms_since t0 in
            send i;
            on_response idx line ms)
      ready
  done
