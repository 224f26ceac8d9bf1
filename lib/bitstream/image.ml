open Device

(* [addrs.(i)] is frame [i]'s packed address; its payload is bytes
   [i * Frame.payload_bytes] onwards of [payload]. *)
type t = { device : string; addrs : int array; payload : string }

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
  let minors col =
    Grid.frames part.Partition.grid (Partition.column_type part col).Resource.kind
  in
  let n = ref 0 in
  for col = rect.Rect.x to Rect.x2 rect do
    n := !n + (rect.Rect.h * minors col)
  done;
  let addrs = Array.make !n 0 in
  let payload = Bytes.create (!n * Frame.payload_bytes) in
  let i = ref 0 in
  for col = rect.Rect.x to Rect.x2 rect do
    let ty = Partition.column_type part col in
    let minors = minors col in
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
        let off = !i * Frame.payload_bytes in
        for w = 0 to Frame.words_per_frame - 1 do
          Bytes.set_int32_be payload (off + (4 * w)) (Int32.of_int (mix base w))
        done;
        addrs.(!i) <- Frame.pack ~column:col ~region_row:row ~minor;
        incr i
      done
    done
  done;
  { device = Grid.name part.Partition.grid;
    addrs;
    payload = Bytes.unsafe_to_string payload }

let device t = t.device
let frame_count t = Array.length t.addrs
let payload t = t.payload

let frames t =
  List.init (frame_count t) (fun i ->
      { Frame.addr = Frame.unpack_address t.addrs.(i);
        data = String.sub t.payload (i * Frame.payload_bytes) Frame.payload_bytes })

let map_addresses f t = { t with addrs = Array.map f t.addrs }

(* Every payload is [Frame.payload_bytes] long, so equal payload strings
   mean the same frame count and the same payloads in order. *)
let payload_equal a b = String.equal a.payload b.payload

let same_addresses a b =
  let n = Array.length a in
  let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
  n = Array.length b && from 0

let equal a b =
  a == b
  || String.equal a.device b.device
     && same_addresses a.addrs b.addrs
     && String.equal a.payload b.payload

let magic = 0x52464250l (* "RFBP" *)
let frame_bytes = 4 + Frame.payload_bytes

(* magic, name length, name, frame count; per frame the address word
   and the payload; the CRC of everything before *)
let serialize t =
  let name_len = String.length t.device in
  let off = 12 + name_len in
  let len = off + (frame_count t * frame_bytes) in
  let b = Bytes.create (len + 4) in
  Bytes.set_int32_be b 0 magic;
  Bytes.set_int32_be b 4 (Int32.of_int name_len);
  Bytes.blit_string t.device 0 b 8 name_len;
  Bytes.set_int32_be b (off - 4) (Int32.of_int (frame_count t));
  for i = 0 to frame_count t - 1 do
    let o = off + (i * frame_bytes) in
    Bytes.set_int32_be b o (Int32.of_int t.addrs.(i));
    Bytes.blit_string t.payload (i * Frame.payload_bytes) b (o + 4)
      Frame.payload_bytes
  done;
  Bytes.set_int32_be b len (Crc32.update 0l b 0 len);
  b

let crc t =
  let b = serialize t in
  Bytes.get_int32_be b (Bytes.length b - 4)

let parse b =
  let len = Bytes.length b in
  if len < 16 then Error "truncated image"
  else if Bytes.get_int32_be b 0 <> magic then Error "bad magic"
  else if Bytes.get_int32_be b (len - 4) <> Crc32.update 0l b 0 (len - 4) then
    Error "CRC mismatch"
  else begin
    let name_len = Int32.to_int (Bytes.get_int32_be b 4) in
    (* the name and the frame count must fit before the CRC *)
    if name_len < 0 || 12 + name_len > len - 4 then Error "truncated image"
    else begin
      let off = 12 + name_len in
      let nframes = Int32.to_int (Bytes.get_int32_be b (off - 4)) in
      (* the count is checked against the body before anything is
         sized from it *)
      let body = len - 4 - off in
      if nframes < 0 then Error "negative frame count"
      else if nframes * frame_bytes > body then Error "truncated image"
      else if nframes * frame_bytes < body then Error "trailing bytes"
      else begin
        let addrs = Array.make nframes 0 in
        let payload = Bytes.create (nframes * Frame.payload_bytes) in
        for i = 0 to nframes - 1 do
          let o = off + (i * frame_bytes) in
          addrs.(i) <- Int32.to_int (Bytes.get_int32_be b o) land 0xFFFFFFFF;
          Bytes.blit b (o + 4) payload (i * Frame.payload_bytes)
            Frame.payload_bytes
        done;
        Ok
          { device = Bytes.sub_string b 8 name_len;
            addrs;
            payload = Bytes.unsafe_to_string payload }
      end
    end
  end
