(* The one record codec of the cache, the journal and the supervisor
   pipes: a checksummed, length-framed payload

     <magic> <payload-md5-hex> <payload-len>\n<payload>\n

   Each user picks its own magic, so a cache entry can never be read as
   a journal record or a worker reply. The MD5 guards against bit rot and
   against the half-written tail a killed writer leaves; it does not
   authenticate. Every length is taken from outside the process, so the
   header parser bounds it before any buffer or read is sized by it. *)

exception Timeout

let encode ~magic payload =
  Printf.sprintf "%s %s %d\n%s\n" magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

(* [Some (digest, len)] for a header line of [magic]. A negative length,
   or one no string could hold, is no header: it would otherwise reach
   [Unix.read], [String.sub] or [Buffer.create] as a size. *)
let parse_header ~magic line =
  match String.split_on_char ' ' line with
  | [ m1; m2; digest; len ] when String.equal (m1 ^ " " ^ m2) magic -> (
      match int_of_string_opt len with
      | Some n when n >= 0 && n <= Sys.max_string_length -> Some (digest, n)
      | Some _ | None -> None)
  | _ -> None

let checksum_ok digest payload = String.equal digest (Digest.to_hex (Digest.string payload))

let decode ~magic raw pos =
  match String.index_from_opt raw pos '\n' with
  | None -> None
  | Some nl -> (
      match parse_header ~magic (String.sub raw pos (nl - pos)) with
      | None -> None
      | Some (digest, len) ->
          let pstart = nl + 1 in
          (* compared by subtraction: [pstart + len] may not fit an int *)
          if len > String.length raw - pstart - 1 then None
          else
            let payload = String.sub raw pstart len in
            if raw.[pstart + len] <> '\n' || not (checksum_ok digest payload) then None
            else Some (payload, pstart + len + 1))

(* -- over file descriptors ------------------------------------------------- *)

(* Block until [fd] is ready (read side when [read]), or raise [Timeout]
   once [deadline] (absolute monotonic time) has passed. *)
let rec wait ?deadline ~read fd =
  let left =
    match deadline with
    | None -> -1.0
    | Some d ->
        let left = d -. Nadroid_clock.Clock.now () in
        if left <= 0.0 then raise Timeout;
        left
  in
  let r, w = if read then ([ fd ], []) else ([], [ fd ]) in
  match Unix.select r w [] left with
  | [], [], _ -> raise Timeout
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ?deadline ~read fd

(* Write all of [s] to [fd]. With a deadline the fd must be
   non-blocking: every chunk is gated by a deadline-bounded select, so a
   peer that stops draining the pipe mid-frame — requests embed the full
   source, easily past pipe capacity — surfaces as [Timeout] instead of
   blocking the writer forever. *)
let write_all ?deadline fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait ?deadline ~read:false fd;
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write ?deadline ~magic fd payload = write_all ?deadline fd (encode ~magic payload)


(* Append exactly [n] more bytes from [fd] to [buf]; false on EOF. The
   buffer grows with the bytes that arrive, never by the claimed [n]. *)
let read_into ?deadline fd buf n =
  let chunk = Bytes.create (min (max n 1) 65536) in
  let rec go remaining =
    if remaining = 0 then true
    else begin
      if deadline <> None then wait ?deadline ~read:true fd;
      let r = Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) in
      if r = 0 then false
      else begin
        Buffer.add_subbytes buf chunk 0 r;
        go (remaining - r)
      end
    end
  in
  go n

(* Lines that are not headers of [magic] are skipped, up to a cap: a
   host binary's module initializers — test harnesses especially — may
   print to stdout before the worker loop claims the reply pipe, and that
   noise must not read as worker death. The checksum still guards every
   byte that matters. *)
let read ?deadline ~magic fd =
  let rec frames skipped =
    if skipped > 1_000_000 then failwith "no frame in 1MB of pipe output";
    let buf = Buffer.create 256 in
    (* header: byte-wise up to the newline (headers are ~60 bytes and
       one frame is in flight at a time, so not a hot path) *)
    let rec header () =
      let before = Buffer.length buf in
      if not (read_into ?deadline fd buf 1) then
        if before = 0 then None else failwith "truncated frame header"
      else if Buffer.nth buf before = '\n' then Some (Buffer.sub buf 0 before)
      else header ()
    in
    match header () with
    | None -> None
    | Some line -> (
        match parse_header ~magic line with
        | None -> frames (skipped + String.length line + 1)
        | Some (digest, len) ->
            let body = Buffer.create (min (len + 1) 65536) in
            if not (read_into ?deadline fd body (len + 1)) then
              failwith "truncated frame payload";
            let payload = Buffer.sub body 0 len in
            if Buffer.nth body len <> '\n' then failwith "bad frame terminator";
            if not (checksum_ok digest payload) then failwith "frame checksum mismatch";
            Some payload)
  in
  frames 0
