(** Plan interpreter: operators exchange batches of ~1024 rows, each
    operator a closure returning its next batch. Pipelining operators
    (scan, filter, project, limit, distinct, union, nested loop) stream
    batches; blocking operators (sort, hash-join build, aggregate,
    staircase join) materialize their input when opened.

    Every run fills an EXPLAIN ANALYZE tree ({!Plan.annotated}): each
    opened operator is wrapped in a counter, so an observed query runs
    exactly the code an unobserved one does. *)

exception Exec_error of string

val batch_size : int
(** Rows per batch that operators which re-chunk their output (the nested
    loop join) emit at most. Materializing operators hand out their whole
    output as one batch. *)

type result = { columns : string list; rows : Value.t array list }

val run : ?params:Value.t array -> Planner.catalog -> Plan.t -> result * Plan.annotated
(** Compile and run a plan against the given parameter bindings: the
    result rows plus the executed operator tree with rows, non-empty
    batches and inclusive wall-clock per operator. The tree's [an_est]
    fields stay [None] ({!Planner.annotate_estimates} fills them). *)
