(** Append-only checkpoint journal for batch runs.

    Every completed app — success or structured fault — is appended as
    one {!Frame} and flushed, so it survives the process being killed at any
    instant. Replay recovers the longest valid record prefix; the
    half-written tail of a crashed append fails its checksum and is
    truncated away on reopen. A {!Batch.run} with [~resume] replays the
    journal and re-analyzes only the apps whose record is missing or
    whose {!Cache.key} changed, producing output byte-identical to an
    uninterrupted run. *)

type record = {
  j_name : string;  (** the app/file name as the batch addressed it *)
  j_key : string;
      (** {!Cache.key} of (source, config, version) at completion; a
          resumed run only reuses a record whose key still matches *)
  j_result : (Cache.entry, Fault.t) result;
}

type t

val open_ : path:string -> resume:bool -> t * record list
(** Open a journal for appending, creating parent directories as
    needed. With [resume = true], replay the longest valid record
    prefix (returned), truncate any garbage tail, and append after it;
    with [resume = false], start empty (truncating any previous
    content). *)

val append : t -> record -> unit
(** Append one record and flush it to the kernel. Serialized across
    domains; raises on I/O failure (injected or real) — the caller
    decides whether lost durability is worth surfacing. *)

val close : t -> unit

val replay : path:string -> record list
(** The longest valid record prefix of the journal at [path]; [[]] if
    the file is absent or starts with garbage. Read-only. *)

val latest : record list -> (string, record) Hashtbl.t
(** Index records by [j_name], last record winning — a resumed run may
    have journaled an app once per attempt. *)
