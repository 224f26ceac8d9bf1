(** Partial bitstream images: an ordered sequence of addressed frames
    protected by a CRC, with a simple binary wire format.

    [synthesize] produces the partial bitstream of a placed module: one
    frame per (covered tile, minor index).  Payload words depend only on
    the module's seed, the tile {e type} (kind and variant), the minor
    index and the frame's column and row offsets inside the rectangle —
    never on the absolute position — modelling Definition .1's
    requirement that tiles of one type carry identical configuration
    data, which is what makes relocation by pure address rewriting
    possible: the same module synthesized at a compatible rectangle
    elsewhere has the same payload bytes.

    An image is flat: one [int array] of packed addresses
    ({!Frame.pack_address}) and one payload string holding every
    frame's {!Frame.payload_bytes} bytes back to back, frame-major,
    words big-endian — the bytes the wire format carries.  Relocation
    ({!map_addresses}) builds a new address array and shares the payload
    string. *)

type t

val synthesize :
  seed:int -> Device.Partition.t -> Device.Rect.t -> t
(** @raise Invalid_argument if the rectangle leaves the device or an
    address field does not fit {!Frame.pack_address}. *)

val device : t -> string
(** The name of the device the image was made for. *)

val frame_count : t -> int

val payload : t -> string
(** Every frame's payload in frame order; frame [i]'s is the
    {!Frame.payload_bytes} bytes at [i * Frame.payload_bytes]. *)

val frames : t -> Frame.t list
(** The frames in order, unpacked: a copy, for callers that walk
    frames one by one. *)

val map_addresses : (int -> int) -> t -> t
(** [map_addresses f img] is [img] with every packed address [a]
    replaced by [f a], in frame order, sharing [img]'s payload. *)

val payload_equal : t -> t -> bool
(** Same frame payloads in order, addresses ignored. *)

val equal : t -> t -> bool
(** Same device, addresses and payloads.  Since every frame carries
    exactly {!Frame.payload_bytes}, this holds exactly when the two
    images {!serialize} to the same bytes. *)

val serialize : t -> bytes
(** Wire format: magic, device name, frame count; per frame the packed
    address and payload words; trailing CRC-32 of everything before. *)

val parse : bytes -> (t, string) result
(** Rejects bad magic, CRC mismatches, truncation and trailing bytes.
    The frame count is checked against the body length before the
    address array or the payload is allocated, so a count read from the
    wire never sizes an allocation. *)

val crc : t -> int32
(** CRC of the serialized image (what a loader would check). *)
