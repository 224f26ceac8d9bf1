type address = { column : int; region_row : int; minor : int }

let words_per_frame = 41
let payload_bytes = 4 * words_per_frame

let pack_address { column; region_row; minor } =
  if column < 1 || column > 0xFFFF then invalid_arg "Frame.pack_address: column";
  if region_row < 1 || region_row > 0xFF then invalid_arg "Frame.pack_address: row";
  if minor < 0 || minor > 0xFF then invalid_arg "Frame.pack_address: minor";
  Int32.logor
    (Int32.shift_left (Int32.of_int column) 16)
    (Int32.logor (Int32.shift_left (Int32.of_int region_row) 8) (Int32.of_int minor))

let unpack_address w =
  {
    column = Int32.to_int (Int32.shift_right_logical w 16) land 0xFFFF;
    region_row = Int32.to_int (Int32.shift_right_logical w 8) land 0xFF;
    minor = Int32.to_int w land 0xFF;
  }

type t = { addr : address; data : string }

let compare_address a b = compare (a.column, a.region_row, a.minor) (b.column, b.region_row, b.minor)

let equal a b = compare_address a.addr b.addr = 0 && String.equal a.data b.data

let pp_address ppf a =
  Format.fprintf ppf "col=%d row=%d minor=%d" a.column a.region_row a.minor
