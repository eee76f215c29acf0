(* Spans and counters recorded from outside the compiler. A span is one
   timed call into a layer's public function; a counter is an exact count
   taken at the same boundary. Both live in memory and are summarised when
   the run ends. Recording is off unless a traced run switches it on, so
   the untraced loops pay one branch per call site. *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Growable sample buffer (milliseconds). *)
type series = { mutable data : float array; mutable len : int }

let new_series () = { data = Array.make 256 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile a p =
  match Array.length a with
  | 0 -> 0.
  | n ->
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median a =
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_of l = median (let a = Array.of_list l in Array.sort compare a; a)

(* ------------------------------------------------------------------ *)

let enabled = ref false
let counting = ref false
let spans : (string, series) Hashtbl.t = Hashtbl.create 64
let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

let record name ms =
  if !enabled then begin
    let s =
      match Hashtbl.find_opt spans name with
      | Some s -> s
      | None ->
        let s = new_series () in
        Hashtbl.add spans name s;
        s
    in
    push s ms
  end

(* [time name f] runs [f], recording its duration under [name] when
   tracing is on (also when [f] raises). *)
let time name f =
  if not !enabled then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
      record name (ms_since t0);
      v
    | exception e ->
      record name (ms_since t0);
      raise e
  end

(* Counters are exact only over a fixed input set, so they count only
   while [counting] is on. *)
let add name n =
  if !counting then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add counters name (ref n)

let count name =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0

let samples name =
  match Hashtbl.find_opt spans name with
  | Some s -> sorted s
  | None -> [||]

let calls name =
  match Hashtbl.find_opt spans name with Some s -> s.len | None -> 0
let total_ms name = Array.fold_left ( +. ) 0. (samples name)
let span_names () = Hashtbl.fold (fun k _ acc -> k :: acc) spans [] |> List.sort compare

(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
        in
        scan ())

let self_hwm_mb () = vm_hwm_mb "self"
