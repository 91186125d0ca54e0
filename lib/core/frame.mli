(** The checksummed, length-framed record codec shared by the cache, the
    journal and the supervisor pipes:

    {v <magic> <payload-md5-hex> <payload-len>\n<payload>\n v}

    A header whose length is negative or larger than
    [Sys.max_string_length] is not a header, so a length read from disk or
    a pipe can never size a read or a buffer it cannot fill. *)

exception Timeout
(** A deadline passed mid-frame ({!read}, {!write}). *)

val encode : magic:string -> string -> string

val decode : magic:string -> string -> int -> (string * int) option
(** [decode ~magic raw pos] is the payload of the frame starting at
    [pos] and the position just past it, or [None] when the bytes from
    [pos] are not one whole frame of [magic] with a matching checksum.
    Never raises for any [raw] and any [pos] in [0, String.length raw]. *)

val write : ?deadline:float -> magic:string -> Unix.file_descr -> string -> unit
(** Write one frame. With [deadline] (absolute {!Nadroid_clock.Clock}
    time) the fd must be non-blocking, and a peer that stops reading
    raises {!Timeout}. *)

val read : ?deadline:float -> magic:string -> Unix.file_descr -> string option
(** Read one frame's payload; [None] on EOF at a frame boundary. Lines
    before the next header (at most 1 MB) are skipped as noise. Raises
    [Failure] on a truncated, unterminated or checksum-broken frame and
    {!Timeout} past [deadline]. The payload buffer grows with the bytes
    that arrive, not with the length the header claims. *)
