(** Hierarchical spans on the monotonic clock, collected into a bounded
    ring buffer with per-trace sampling. Ambient and single-threaded: the
    open-span stack is dynamically scoped, so instrumented layers nest
    without plumbing a context through every signature. *)

type span = {
  trace_id : int;
  span_id : int;
  parent_id : int option;  (** [None] for a trace's root span *)
  name : string;
  mutable attrs : (string * string) list;
  start_ns : int;  (** {!Clock.now_ns} at open *)
  mutable dur_ns : int;  (** -1 while open *)
}

type sampling =
  | Off  (** tracing disabled; [with_span] is a single branch *)
  | Always
  | Ratio of float  (** keep roughly this fraction of traces *)
  | Slow_only of int  (** keep traces whose root span lasts >= this many ns *)

val set_sampling : sampling -> unit
val sampling : unit -> sampling

val enabled : unit -> bool
(** [sampling () <> Off]. *)

val recording : unit -> bool
(** True inside a trace that is being recorded — instrumentation can use
    this to decide whether to do extra work (e.g. turn the executor's
    operator tree into spans) that only pays off when spans are kept. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. The first [with_span] of a nest roots a
    new trace and applies the sampling decision; nested calls attach child
    spans. The span is finished (and the trace flushed) even when the
    thunk raises. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span, if any. *)

val current : unit -> span option
(** The innermost open span (its [dur_ns] is still -1). *)

val emit :
  ?attrs:(string * string) list ->
  ?parent:int ->
  start_ns:int ->
  dur_ns:int ->
  string ->
  int
(** Record an already-measured interval as a finished child span of
    [?parent] (default: the innermost open span) and return its span id.
    Used to bridge the EXPLAIN ANALYZE operator tree into the trace. *)

val set_capacity : int -> unit
(** Resize (and clear) the ring buffer; also bounds the number of spans
    one trace may record. Default 8192. *)

val spans : unit -> span list
(** Retained spans, oldest first. *)

val dropped_count : unit -> int
(** Spans discarded because a trace overflowed the buffer. *)

val clear : unit -> unit
(** Drop retained spans and reset the drop counter. *)
