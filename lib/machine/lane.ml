(** Lane-level scalar arithmetic.

    Lane values are carried as [int64] regardless of the element width
    [D ∈ {1, 2, 4, 8}] and are kept in *sign-extended canonical form*: the
    value of a [D]-byte lane is the two's-complement signed integer it
    represents. All arithmetic wraps modulo [2^(8D)], matching both the SIMD
    hardware the paper targets and the C code our emitter generates. *)

type width = int
(** Element width in bytes: 1, 2, 4 or 8. *)

let check_width d =
  match d with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg (Printf.sprintf "Lane.check_width: unsupported width %d" d)

let bits d = 8 * d

(** [canonicalize d v] truncates [v] to [D] bytes and sign-extends. *)
let canonicalize d v =
  check_width d;
  if d = 8 then v
  else
    let b = bits d in
    let shifted = Int64.shift_left v (64 - b) in
    Int64.shift_right shifted (64 - b)

(** [min_value d] / [max_value d]: signed range bounds of a [D]-byte lane. *)
let min_value d =
  check_width d;
  if d = 8 then Int64.min_int else Int64.neg (Int64.shift_left 1L (bits d - 1))

let max_value d =
  check_width d;
  if d = 8 then Int64.max_int else Int64.sub (Int64.shift_left 1L (bits d - 1)) 1L

(** Binary lane operations. The set matches the scalar operator set of the
    loop IR; the paper's evaluation uses [Add] exclusively ("all arithmetic
    operations are essentially the same for alignment handling") but the
    machinery is operator-agnostic. *)
type binop = Add | Sub | Mul | Min | Max | And | Or | Xor

let all_binops = [ Add; Sub; Mul; Min; Max; And; Or; Xor ]

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Min -> "min"
  | Max -> "max"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"

(** [binop_commutative op] — used by common-offset reassociation, which may
    only regroup chains of one associative-commutative operator. *)
let binop_commutative = function
  | Add | Mul | Min | Max | And | Or | Xor -> true
  | Sub -> false

let binop_associative = function
  | Add | Mul | Min | Max | And | Or | Xor -> true
  | Sub -> false

(** Lane comparisons (the predication extension): signed compares over
    canonical values, producing a boolean per lane. The vector form
    ({!Vec.cmp}) materializes the boolean as an all-ones/all-zeros lane,
    matching [vcmpgt]-style SIMD compare instructions. *)
type cmp = Lt | Le | Gt | Ge | Eq | Ne

let all_cmps = [ Lt; Le; Gt; Ge; Eq; Ne ]

let cmp_name = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

(** [negate_cmp c] — the complementary comparison over the {e same} operand
    order: [negate_cmp c a b = not (c a b)]. If-conversion uses this to tag
    else-branch statements with the syntactic complement of the guard. *)
let negate_cmp = function
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le
  | Eq -> Ne
  | Ne -> Eq

(** [apply_cmp d c a b] evaluates one lane comparison (signed, on canonical
    values). *)
let apply_cmp d c a b =
  check_width d;
  let a = canonicalize d a and b = canonicalize d b in
  let s = Int64.compare a b in
  match c with
  | Lt -> s < 0
  | Le -> s <= 0
  | Gt -> s > 0
  | Ge -> s >= 0
  | Eq -> s = 0
  | Ne -> s <> 0

(** [apply d op a b] evaluates one lane, wrapping to width [d]. Inputs need
    not be canonical; the result always is. *)
let apply d op a b =
  check_width d;
  let a = canonicalize d a and b = canonicalize d b in
  let raw =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | Min -> if Int64.compare a b <= 0 then a else b
    | Max -> if Int64.compare a b >= 0 then a else b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
  in
  canonicalize d raw
