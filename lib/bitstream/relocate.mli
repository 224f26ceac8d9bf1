(** REPLICA / BiRF-style bitstream relocation filter (refs. [2]-[5]).

    Relocation moves a module's configuration data from a source area
    to a compatible target area by rewriting the frame addresses and
    recomputing the CRC — the payload is untouched.  The filter refuses
    incompatible targets (Definition .1): that is exactly the situation
    the paper's floorplanner prevents by reserving free-compatible
    areas. *)

type error =
  | Incompatible of string  (** target area fails Definition .1 *)
  | Address_outside_source of Frame.address
  | Wrong_device of string

val pp_error : Format.formatter -> error -> unit

val relocate :
  Device.Partition.t ->
  src:Device.Rect.t ->
  dst:Device.Rect.t ->
  Image.t ->
  (Image.t, error) result
(** [relocate part ~src ~dst img] rewrites every frame address by the
    column/row displacement from [src] to [dst] into a new address
    array; the result shares [img]'s payload string.  Fails if the
    image names a different device, if [src] or [dst] leaves the device
    ([Incompatible], naming the rectangle), if [dst] is not compatible
    with [src], or if a frame lies outside [src].
    @raise Invalid_argument if a rewritten address does not fit
    {!Frame.pack_address} (a device over 65535 columns or 255 rows). *)

val relocate_serialized :
  Device.Partition.t ->
  src:Device.Rect.t ->
  dst:Device.Rect.t ->
  bytes ->
  (bytes, string) result
(** End-to-end filter on the wire format: parse (checking the CRC),
    relocate, re-serialize (recomputing the CRC) — the software
    equivalent of the BiRF hardware filter. *)
