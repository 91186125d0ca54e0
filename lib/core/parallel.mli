(** Domain parallelism (OCaml 5 [Domain]/[Mutex]).

    - {!stream}: the batch scheduler — results in input order regardless
      of scheduling, crash-isolated per slot, bounded memory. {!map_result}
      and {!map} collect it into a list; {!Batch.run} drives it for
      analysis batches. Tasks must not share mutable state.
    - {!Pool}: a persistent pool for long-lived processes (the serve
      daemon) — create once, submit tasks as requests arrive, await
      their futures, shut down gracefully (queued work drains first). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

module Pool : sig
  type t
  (** A fixed set of worker domains sharing one task queue. *)

  type 'a future
  (** The pending result of a submitted task. *)

  val create : ?jobs:int -> unit -> t
  (** Spawn [jobs] workers (default {!default_jobs}, min 1). *)

  val jobs : t -> int
  (** Worker-domain count of the pool. *)

  val submit : t -> (unit -> 'a) -> 'a future
  (** Enqueue a task. Tasks start in submission order (completion order
      depends on scheduling). @raise Invalid_argument after
      {!shutdown}. *)

  val await : 'a future -> ('a, exn) result
  (** Block until the task finishes; its exception, if any, is captured
      in the result, never re-raised into the awaiting domain. *)

  val shutdown : t -> unit
  (** Graceful: stop accepting work, let the workers drain the queue,
      then join them. Idempotent. *)
end

type sched =
  | Static  (** per-domain round-robin split, no rebalancing (baseline) *)
  | Steal  (** idle workers steal the back half of the longest peer deque *)

val default_window : int
(** Default admission window of {!stream} (256 in-flight indices). *)

val stream :
  ?jobs:int ->
  ?window:int ->
  ?sched:sched ->
  n:int ->
  (int -> 'b) ->
  (int -> ('b, exn) result -> unit) ->
  unit
(** [stream ~n f emit] computes [f 0 .. f (n-1)] on up to [jobs] domains
    (counting the caller) and calls [emit i result] for every index in
    strict input order. Crash-isolated per slot: a task's exception is
    captured as [Error] in its own slot while the remaining items still
    run. At most [window] indices (default {!default_window}, floored at
    [2*jobs]) are past the emission watermark at once, so memory stays
    bounded independent of [n]. [emit] is serialized on one domain at a
    time and must not re-enter this module. If [emit]
    raises, no further results are emitted and the exception is
    re-raised in the caller after in-flight tasks finish. [jobs = 1]
    runs everything sequentially in the calling domain. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** {!stream} over a list, collected in input order: one poisoned input
    costs its own [Error] slot, never the batch. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Fail-fast {!map_result}: the first failure in input order is
    re-raised in the caller after the batch completes. Same output as
    [List.map f xs] whenever [f] is pure. *)
