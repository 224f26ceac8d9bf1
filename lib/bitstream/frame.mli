(** Configuration frames: the atomic units of (re)configuration data.

    A frame is addressed by its column, clock-region row and minor
    index within the tile; tiles of kind CLB/BRAM/DSP hold 36/30/28
    frames (Section VI).  A frame's payload is its fixed number of
    32-bit words, held as the big-endian bytes the wire format carries.
    An {!Image} stores its addresses packed ({!pack_address}) and its
    payloads back to back in one string; {!t} is the per-frame view
    {!Image.frames} gives of it. *)

type address = { column : int; region_row : int; minor : int }
(** 1-based column and clock-region row, 0-based minor index. *)

val words_per_frame : int
(** Payload words per frame (41, as on Virtex-5). *)

val payload_bytes : int
(** Bytes of one payload: 4 per word. *)

val pack_address : address -> int
(** Dense packing into the low 32 bits: column in bits 16..31, row in
    8..15, minor in 0..7 — the address word of the wire format.
    @raise Invalid_argument on out-of-range fields. *)

val pack : column:int -> region_row:int -> minor:int -> int
(** {!pack_address} without the record. *)

val unpack_address : int -> address
(** Inverse of {!pack_address} on its low 32 bits; any word unpacks. *)

val column_of : int -> int
val row_of : int -> int
val minor_of : int -> int
(** The fields of a packed address, as {!unpack_address} reads them. *)

type t = { addr : address; data : string }
(** [data] holds exactly {!payload_bytes} bytes: the payload words in
    order, each big-endian. *)

val pp_address : Format.formatter -> address -> unit
