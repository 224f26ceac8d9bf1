open Device

type t = { device : string; frames : Frame.t list }

(* Small deterministic PRNG (xorshift) so payloads are reproducible and
   position-independent: word [c] of the frame whose per-frame part is
   [frame_seed seed a b].  Native ints, masked to 32 bits. *)
let frame_seed seed a b = seed lxor (a * 0x9E3779B1) lxor (b * 0x85EBCA77)

let mix base c =
  let x = base lxor (c * 0xC2B2AE3D) in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) in
  x land 0xFFFFFFFF

let minors_of_kind part kind =
  Grid.frames part.Partition.grid kind

let kind_code = function
  | Resource.Clb -> 0
  | Resource.Bram -> 1
  | Resource.Dsp -> 2
  | Resource.Io -> 3

let synthesize ~seed part rect =
  if
    not
      (Rect.within ~width:(Partition.width part) ~height:(Partition.height part)
         rect)
  then invalid_arg "Image.synthesize: rectangle outside device";
  let frames = ref [] in
  for col = rect.Rect.x to Rect.x2 rect do
    let ty = Partition.column_type part col in
    let minors = minors_of_kind part ty.Resource.kind in
    (* depends on tile type + relative column + minor + word, never on
       the absolute coordinates *)
    let a =
      (kind_code ty.Resource.kind * 97)
      + (ty.Resource.variant * 31)
      + (col - rect.Rect.x)
    in
    for row = rect.Rect.y to Rect.y2 rect do
      for minor = 0 to minors - 1 do
        let base = frame_seed seed a ((minor * 131) + (row - rect.Rect.y)) in
        let data = Bytes.create Frame.payload_bytes in
        for w = 0 to Frame.words_per_frame - 1 do
          Bytes.set_int32_be data (4 * w) (Int32.of_int (mix base w))
        done;
        frames :=
          { Frame.addr = { Frame.column = col; region_row = row; minor };
            data = Bytes.unsafe_to_string data }
          :: !frames
      done
    done
  done;
  { device = Grid.name part.Partition.grid; frames = List.rev !frames }

let frame_count t = List.length t.frames

let payload_equal a b =
  List.length a.frames = List.length b.frames
  && List.for_all2
       (fun (x : Frame.t) (y : Frame.t) -> String.equal x.Frame.data y.Frame.data)
       a.frames b.frames

let equal a b =
  a.device = b.device
  && List.length a.frames = List.length b.frames
  && List.for_all2 Frame.equal a.frames b.frames

let magic = 0x52464250l (* "RFBP" *)

let put_i32 buf v =
  Buffer.add_char buf (Char.chr (Int32.to_int (Int32.shift_right_logical v 24) land 0xFF));
  Buffer.add_char buf (Char.chr (Int32.to_int (Int32.shift_right_logical v 16) land 0xFF));
  Buffer.add_char buf (Char.chr (Int32.to_int (Int32.shift_right_logical v 8) land 0xFF));
  Buffer.add_char buf (Char.chr (Int32.to_int v land 0xFF))

let serialize_body t =
  let buf = Buffer.create 4096 in
  put_i32 buf magic;
  put_i32 buf (Int32.of_int (String.length t.device));
  Buffer.add_string buf t.device;
  put_i32 buf (Int32.of_int (List.length t.frames));
  List.iter
    (fun (f : Frame.t) ->
      put_i32 buf (Frame.pack_address f.Frame.addr);
      Buffer.add_string buf f.Frame.data)
    t.frames;
  buf

let serialize t =
  let buf = serialize_body t in
  let body = Buffer.to_bytes buf in
  let crc = Crc32.digest body in
  put_i32 buf crc;
  Buffer.to_bytes buf

let crc t = Crc32.digest (Buffer.to_bytes (serialize_body t))

let get_i32 b off =
  let byte i = Int32.of_int (Char.code (Bytes.get b (off + i))) in
  Int32.logor
    (Int32.shift_left (byte 0) 24)
    (Int32.logor
       (Int32.shift_left (byte 1) 16)
       (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))

let parse b =
  let len = Bytes.length b in
  if len < 16 then Error "truncated image"
  else if get_i32 b 0 <> magic then Error "bad magic"
  else begin
    let stored_crc = get_i32 b (len - 4) in
    let computed = Crc32.update 0l b 0 (len - 4) in
    if stored_crc <> computed then Error "CRC mismatch"
    else begin
      try
        let name_len = Int32.to_int (get_i32 b 4) in
        let device = Bytes.sub_string b 8 name_len in
        let off = 8 + name_len in
        let nframes = Int32.to_int (get_i32 b off) in
        let off = ref (off + 4) in
        let frames = ref [] in
        for _ = 1 to nframes do
          let addr = Frame.unpack_address (get_i32 b !off) in
          off := !off + 4;
          let data = Bytes.sub_string b !off Frame.payload_bytes in
          off := !off + Frame.payload_bytes;
          frames := { Frame.addr; data } :: !frames
        done;
        if !off <> len - 4 then Error "trailing bytes"
        else Ok { device; frames = List.rev !frames }
      with Invalid_argument _ -> Error "truncated image"
    end
  end
