(** Configuration frames: the atomic units of (re)configuration data.

    A frame is addressed by its column, clock-region row and minor
    index within the tile; tiles of kind CLB/BRAM/DSP hold 36/30/28
    frames (Section VI).  A frame's payload is its fixed number of
    32-bit words, held as the big-endian bytes the wire format carries,
    so serializing a frame copies its payload and relocating it shares
    the payload untouched. *)

type address = { column : int; region_row : int; minor : int }
(** 1-based column and clock-region row, 0-based minor index. *)

val words_per_frame : int
(** Payload words per frame (41, as on Virtex-5). *)

val payload_bytes : int
(** Bytes of one payload: 4 per word. *)

val pack_address : address -> int32
(** Dense packing: column in bits 16.., row in 8..15, minor in 0..7.
    @raise Invalid_argument on out-of-range fields. *)

val unpack_address : int32 -> address

type t = { addr : address; data : string }
(** [data] holds exactly {!payload_bytes} bytes: the payload words in
    order, each big-endian. *)

val compare_address : address -> address -> int
val equal : t -> t -> bool
val pp_address : Format.formatter -> address -> unit
