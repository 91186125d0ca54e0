(** Content-addressed on-disk cache for analysis results.

    Entries are addressed by [Digest (source, config rendering, analyzer
    version, file name)] and store the rendered artifacts of one analysis — warning
    counts, the final report string and the producing run's metrics — so
    a warm re-run of an unchanged input skips analysis entirely while
    staying byte-identical to the cold run. Corrupt or truncated entries
    are reported as {!Corrupt} (carrying a {!Fault.t}) and treated as
    misses: the cache never yields a wrong report. *)

val version : string
(** Analyzer version baked into every address; bumping it busts the
    whole cache. *)

val default_dir : string
(** ["_nadroid_cache"]. *)

type entry = {
  e_potential : int;
  e_after_sound : int;
  e_after_unsound : int;
  e_report : string;  (** rendered final report ({!Report.to_string}) *)
  e_metrics : Pipeline.metrics;  (** metrics of the producing (cold) run *)
}

type outcome = Hit | Miss | Corrupt of Fault.t

val config_digest : Pipeline.config -> string
(** Canonical rendering of every result-influencing config field. *)

val key : ?version:string -> ?file:string -> config:Pipeline.config -> string -> string
(** [key ~file ~config src] is the hex cache address of analyzing [src]
    named [file] under [config]; [?version] overrides {!version} (tests).
    Without [file] it is the digest of the source alone, as the journal
    records it. *)

val path : dir:string -> string -> string
(** On-disk path of an address ([<dir>/<key>.cache]); exposed for tests
    that manipulate entry mtimes directly. *)

val find : dir:string -> string -> entry option * outcome
(** Look an address up. [(Some e, Hit)] on an intact entry; [(None,
    Miss)] when absent; [(None, Corrupt f)] when present but unreadable,
    truncated, checksum-broken or undecodable. A hit touches the entry's
    mtime so LRU eviction tracks recency of use, not just of storage. *)

val store : dir:string -> string -> entry -> unit
(** Write an entry atomically (temp file + rename), creating [dir] as
    needed. The temp name is unique per store — pid alone is not enough,
    since domains share one — so concurrent stores of the same key never
    interleave into one temp file. *)

val sweep_tmp : ?max_age:float -> dir:string -> unit -> int
(** Remove orphaned [.tmp.*] files older than [max_age] seconds
    (default 600) — strandings left by a writer that died between the
    temp write and the rename. They are invisible to [*.cache]
    accounting, so nothing else ever reclaims them. Runs automatically
    the first time {!analyze} opens a directory in this process.
    Returns the number of files removed. *)

val dir_bytes : dir:string -> int
(** Combined size of the [*.cache] entries in [dir] (foreign files are
    not counted). *)

val evict : dir:string -> max_bytes:int -> int
(** Bring the combined [*.cache] size of [dir] under [max_bytes] by
    removing least-recently-used entries (mtime order, path tie-break).
    Foreign files are untouched; removal races are tolerated. Returns
    the number of entries removed. *)

val entry_of_result : Pipeline.t -> entry

val analyze :
  ?config:Pipeline.config -> ?cache:string * int option -> file:string -> string -> entry * outcome
(** The single-app analysis behind every batch, in process and in a
    supervised worker. Without [cache] it is {!Pipeline.analyze} rendered
    into an entry, with outcome [Miss]. With [cache = (dir, max_bytes)] it
    serves the entry of [(file, source, config)] on a hit; otherwise (miss
    or corrupt entry) it analyzes, stores and returns the fresh entry
    together with the outcome that forced the work. Analysis faults
    propagate as exceptions exactly like {!Pipeline.analyze}. [max_bytes]
    runs {!evict} opportunistically after the store; the fresh entry
    carries the newest mtime, so it is evicted last. *)
