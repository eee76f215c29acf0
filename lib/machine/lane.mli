(** Lane-level scalar arithmetic: two's-complement values of width
    [D ∈ {1, 2, 4, 8}] bytes carried as sign-extended [int64]s, with all
    operations wrapping modulo [2^(8D)]. *)

type width = int
(** Element width in bytes: 1, 2, 4 or 8. *)

val check_width : width -> unit
(** Raises [Invalid_argument] on unsupported widths. *)

val bits : width -> int

val canonicalize : width -> int64 -> int64
(** Truncate to [D] bytes and sign-extend. *)

val min_value : width -> int64
val max_value : width -> int64

(** Binary lane operations (the loop IR's operator set). *)
type binop = Add | Sub | Mul | Min | Max | And | Or | Xor

val all_binops : binop list
val binop_name : binop -> string

val binop_commutative : binop -> bool
(** Used by common-offset reassociation and the reduction extension. *)

val binop_associative : binop -> bool

(** Lane comparisons (predication extension): signed compares over
    canonical values. *)
type cmp = Lt | Le | Gt | Ge | Eq | Ne

val all_cmps : cmp list
val cmp_name : cmp -> string

val negate_cmp : cmp -> cmp
(** Complement over the same operand order: [negate_cmp c a b = not (c a b)]. *)

val apply_cmp : width -> cmp -> int64 -> int64 -> bool
(** Evaluate one lane comparison (signed, canonical). *)

val apply : width -> binop -> int64 -> int64 -> int64
(** Evaluate one lane, wrapping to the width; the result is canonical. *)
