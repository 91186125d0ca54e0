(** The one batch engine: journal replay, in-process or supervised
    execution, the analysis cache, the journal append and a stop flag,
    composed over {!Parallel.stream} with results in input order. Every
    driver that analyzes a set of apps runs it. *)

type result = (Cache.entry * Cache.outcome, Fault.t) Stdlib.result

val escaped : Fault.t -> bool
(** The fault stands for an exception that escaped the isolation of one
    app's task in {!run} (an [Internal] fault whose detail starts with
    ["exception escaped isolation: "]): always a bug, never an
    attributable failure of the app. *)

val analyze :
  Supervise.t option ->
  ?cache:string * int option ->
  config:Pipeline.config ->
  file:string ->
  string ->
  result
(** One app: in a worker of the supervisor when given (the outcome is
    then [Miss]), otherwise {!Cache.analyze} in this domain with every
    exception folded into a fault. [cache] is (dir, max bytes). *)

val run :
  ?jobs:int ->
  ?supervise:bool ->
  ?heartbeat:float ->
  ?cache:string * int option ->
  ?journal:string ->
  ?resume:bool ->
  ?stop:bool Atomic.t ->
  ?on_journal_error:(string -> Fault.t -> unit) ->
  ?config:Pipeline.config ->
  (string * (unit -> string)) array ->
  (int -> result -> unit) ->
  int
(** [run inputs emit] analyzes every [(name, source)] of [inputs] on
    [jobs] domains and calls [emit i result] for each index in input
    order, as soon as the results before it are out. [name] is the file
    name the report prints; [source] is read inside the task, so a
    source that cannot be read costs its own fault.

    - [supervise]: run each app in a worker process of a supervisor of
      [jobs] workers, created and shut down by this call; [heartbeat]
      bounds one app's silence before its worker is replaced.
    - [cache]: (dir, max bytes) of the analysis cache.
    - [journal]: append every completed app's record to this journal,
      right after its analysis. With [resume], apps whose replayed
      record still matches their source and config are served from the
      journal (outcome [Hit]) instead of analyzed.
    - [stop]: once set, apps not yet started become
      [Budget P_batch] faults.
    - [on_journal_error]: called with the app's name when an I/O error
      ([Sys_error] or [Unix_error]) kept its record from being appended
      (the result still stands). Any other exception from the append is
      a bug and escapes, like every exception a task did not expect.

    A source that cannot be read becomes that app's fault. An exception
    that escapes a task anyway is emitted as a fault for which
    {!escaped} holds.

    Returns the number of apps served from the journal. *)
