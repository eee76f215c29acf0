(** Greedy test-case shrinking: minimize a failing case's program and
    configuration while preserving the failure class. All proposed variants
    are strictly smaller under a well-founded measure, so shrinking
    terminates; [max_steps] additionally bounds oracle runs. *)

val minimize :
  ?max_steps:int -> ?oracle:(Case.t -> Oracle.outcome) -> Case.t -> Case.t
(** Shrink a failing case greedily (default oracle {!Oracle.run}, default
    budget 1500 oracle runs). A non-failing case is returned unchanged. *)
