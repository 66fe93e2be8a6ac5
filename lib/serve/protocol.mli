(** Wire protocol of the online speculation-control service.

    Frames are [4-byte LE payload length][1-byte tag][payload].  Event
    payloads are the packed {!Rs_behavior.Trace_store} word format
    verbatim — one non-negative 64-bit LE integer per event (bit 0
    taken, bits 1-20 instruction delta, the rest the branch id) — so a
    recorded trace ships over the wire without re-encoding and the
    server hands the decoded frame to {!Rs_core.Reactive.step_chunk},
    the batched simulator's own decode.  Instruction deltas are
    relative to the server's current stream position: concatenating
    frames extends one logical stream.

    No events frame allocates: {!encode_events} writes into the caller's
    buffer, and the incremental {!decoder} parses whatever byte slices
    the transport delivers, decoding events into one array it owns.
    Decoding raises {!Error} on malformed input — unknown tags,
    payload-size violations, integers with sign or high bits set (the
    wire image of the negative-delta corruption
    {!Rs_behavior.Trace_store.record} rejects at pack time).  Framing
    cannot be resynchronised after such an error, so the server answers
    it with {!Error_reply} and closes the connection. *)

val version : int

val max_frame_words : int
(** 32768 — one {!Rs_behavior.Trace_store.chunk_size} of packed events
    per frame, the unit {!Rs_core.Reactive.step_chunk} ingests. *)

val header_bytes : int
(** Frame header size: 4-byte LE payload length plus the tag byte. *)

val max_request_payload : int
val max_reply_payload : int

exception Error of string
(** Malformed frame; the connection must be closed. *)

type request =
  | Events of int array * int
      (** [Events (words, len)]: packed event words [words.(0..len-1)],
          [len] in 1..{!max_frame_words}.  Decoded, [words] is the
          decoder's own array, valid only until the next {!next_request}. *)
  | Query of int  (** "deploy or squash?" for one branch id. *)
  | Flush  (** Barrier: answered once every prior event is applied. *)
  | Stats  (** Server counters as a JSON document. *)
  | Snapshot  (** Serialize the full controller state. *)
  | Shutdown  (** Graceful stop; answered before the server exits. *)

type reply =
  | Ack of int  (** [Flush]/[Shutdown]: total events applied so far. *)
  | Decision of int
      (** [Query]: 2-bit {!Rs_core.Reactive.deployed_code} — bit 0
          speculate, bit 1 direction. *)
  | Stats_reply of string  (** JSON document. *)
  | Snapshot_reply of string  (** {!Snapshot} bytes. *)
  | Error_reply of string

val encode_request : request -> Bytes.t
(** @raise Invalid_argument on an unencodable request (empty or
    oversized events batch, negative word or branch id). *)

val encode_events : Bytes.t -> int array -> int -> int -> int
(** [encode_events buf words off len] writes the events frame of
    [words.(off..off+len-1)] into [buf] and returns its length.
    @raise Invalid_argument as {!encode_request} or on a short slice or buffer. *)

val encode_reply : reply -> Bytes.t

(** {2 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> int -> unit
(** [feed d src off len] appends a received byte slice. *)

val pending : decoder -> int
(** Bytes buffered but not yet consumed by a complete frame — non-zero
    at connection close means the peer died mid-frame. *)

val next_request : decoder -> request option
(** Extract the next complete request, or [None] to feed more bytes.
    @raise Error on a malformed frame. *)

val next_reply : decoder -> reply option
(** Extract the next complete reply, or [None] to feed more bytes.
    @raise Error on a malformed frame. *)
