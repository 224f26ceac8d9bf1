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

let relocate part ~src ~dst (img : Image.t) =
  if img.Image.device <> Grid.name part.Partition.grid then
    Error (Wrong_device img.Image.device)
  else if not (inside part src && inside part dst) then
    let r = if inside part src then dst else src in
    Error (Incompatible (Printf.sprintf "%s leaves the device" (Rect.to_string r)))
  else if not (Compat.compatible part src dst) then
    Error
      (Incompatible
         (Printf.sprintf "%s -> %s" (Rect.to_string src) (Rect.to_string dst)))
  else begin
    let dx = dst.Rect.x - src.Rect.x and dy = dst.Rect.y - src.Rect.y in
    let exception Bad of Frame.address in
    try
      let frames =
        List.map
          (fun (f : Frame.t) ->
            let a = f.Frame.addr in
            if not (Rect.contains_point src a.Frame.column a.Frame.region_row)
            then raise (Bad a);
            {
              f with
              Frame.addr =
                {
                  a with
                  Frame.column = a.Frame.column + dx;
                  region_row = a.Frame.region_row + dy;
                };
            })
          img.Image.frames
      in
      Ok { img with Image.frames }
    with Bad a -> Error (Address_outside_source a)
  end

let relocate_serialized part ~src ~dst bytes_in =
  match Image.parse bytes_in with
  | Error e -> Error e
  | Ok img -> (
    match relocate part ~src ~dst img with
    | Error e -> Error (Format.asprintf "%a" pp_error e)
    | Ok img' -> Ok (Image.serialize img'))
