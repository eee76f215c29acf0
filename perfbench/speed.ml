(* The machine-speed reference. Shared machines change speed by tens of
   percent from one second to the next, for every program on them. Each
   timed phase therefore gives a tenth of its time to a fixed kernel that
   does not touch the compiler, and reported times are scaled by the
   kernel's measured speed over its nominal speed: they read as seconds
   of a machine running the kernel at [nominal_per_s]. A change to the
   compiler cannot move the kernel, so it cannot hide in the scaling.

   The kernel allocates short-lived data (a small hash table, a list and
   its sort) so that it slows down with the same memory-system pressure
   as the compiler does; it keeps nothing live between calls. *)

let kernel () =
  let h = Hashtbl.create 64 in
  let l = ref [] in
  for i = 0 to 2000 do
    let k = i * 7919 land 1023 in
    Hashtbl.replace h k i;
    l := (k, i) :: !l
  done;
  ignore (Sys.opaque_identity (List.length (List.sort compare !l) + Hashtbl.length h))

(* kernel calls per second on a 2.1 GHz Xeon KVM vCPU at its median
   speed *)
let nominal_per_s = 1300.

(* A slice after every [period_s] of measured time: a tenth of a timed
   phase. *)
let period_s = 0.09
let slice_s = 0.01

type t = { mutable calls : int; mutable ns : int64 }

let create () = { calls = 0; ns = 0L }

let slice t =
  let a = Span.now_ns () in
  let stop = Int64.add a (Int64.of_float (slice_s *. 1e9)) in
  while Span.now_ns () < stop do
    kernel ();
    t.calls <- t.calls + 1
  done;
  t.ns <- Int64.add t.ns (Int64.sub (Span.now_ns ()) a)

(* Measured speed over nominal: above 1 on a fast moment. Scale a time
   by multiplying, a rate by dividing. *)
let factor t =
  if t.calls = 0 || t.ns = 0L then 1.
  else float_of_int t.calls /. (Int64.to_float t.ns /. 1e9) /. nominal_per_s
