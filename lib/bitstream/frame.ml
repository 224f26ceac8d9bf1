type address = { column : int; region_row : int; minor : int }

let words_per_frame = 41
let payload_bytes = 4 * words_per_frame

let pack ~column ~region_row ~minor =
  if column < 1 || column > 0xFFFF then invalid_arg "Frame.pack_address: column";
  if region_row < 1 || region_row > 0xFF then invalid_arg "Frame.pack_address: row";
  if minor < 0 || minor > 0xFF then invalid_arg "Frame.pack_address: minor";
  (column lsl 16) lor (region_row lsl 8) lor minor

let pack_address { column; region_row; minor } = pack ~column ~region_row ~minor
let column_of w = (w lsr 16) land 0xFFFF
let row_of w = (w lsr 8) land 0xFF
let minor_of w = w land 0xFF

let unpack_address w =
  { column = column_of w; region_row = row_of w; minor = minor_of w }

type t = { addr : address; data : string }

let pp_address ppf a =
  Format.fprintf ppf "col=%d row=%d minor=%d" a.column a.region_row a.minor
