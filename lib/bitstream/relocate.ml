open Device

type error =
  | Incompatible of string
  | Address_outside_source of Frame.address
  | Wrong_device of string

let pp_error ppf = function
  | Incompatible msg -> Format.fprintf ppf "incompatible target area: %s" msg
  | Address_outside_source a ->
    Format.fprintf ppf "frame %a outside the source area" Frame.pp_address a
  | Wrong_device d -> Format.fprintf ppf "image is for device %s" d

let inside part r =
  Rect.within ~width:(Partition.width part) ~height:(Partition.height part) r

let relocate part ~src ~dst img =
  if Image.device img <> Grid.name part.Partition.grid then
    Error (Wrong_device (Image.device img))
  else if not (inside part src && inside part dst) then
    let r = if inside part src then dst else src in
    Error (Incompatible (Printf.sprintf "%s leaves the device" (Rect.to_string r)))
  else if not (Compat.compatible part src dst) then
    Error
      (Incompatible
         (Printf.sprintf "%s -> %s" (Rect.to_string src) (Rect.to_string dst)))
  else begin
    let dx = dst.Rect.x - src.Rect.x and dy = dst.Rect.y - src.Rect.y in
    let exception Bad of int in
    try
      Ok
        (Image.map_addresses
           (fun a ->
             let column = Frame.column_of a and region_row = Frame.row_of a in
             if not (Rect.contains_point src column region_row) then
               raise_notrace (Bad a);
             Frame.pack ~column:(column + dx) ~region_row:(region_row + dy)
               ~minor:(Frame.minor_of a))
           img)
    with Bad a -> Error (Address_outside_source (Frame.unpack_address a))
  end

let relocate_serialized part ~src ~dst bytes_in =
  match Image.parse bytes_in with
  | Error e -> Error e
  | Ok img -> (
    match relocate part ~src ~dst img with
    | Error e -> Error (Format.asprintf "%a" pp_error e)
    | Ok img' -> Ok (Image.serialize img'))
