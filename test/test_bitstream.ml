(* Tests for the bitstream substrate: CRC vectors, wire-format round
   trips, and the central relocation property — relocating a bitstream
   to a compatible area is equivalent to synthesizing it there. *)

open Device

let mini_part = lazy (Partition.columnar_exn Devices.mini)

let test_crc32_vectors () =
  (* standard check value *)
  Alcotest.(check int32) "123456789" 0xCBF43926l
    (Bitstream.Crc32.digest_string "123456789");
  Alcotest.(check int32) "empty" 0l (Bitstream.Crc32.digest_string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Bitstream.Crc32.digest_string "a")

let test_crc32_incremental () =
  let s = "relocation-aware floorplanning" in
  let b = Bytes.of_string s in
  let whole = Bitstream.Crc32.digest b in
  let part1 = Bitstream.Crc32.update 0l b 0 10 in
  let part2 = Bitstream.Crc32.update part1 b 10 (Bytes.length b - 10) in
  Alcotest.(check int32) "incremental = whole" whole part2

let test_frame_address_pack () =
  let a = { Bitstream.Frame.column = 513; region_row = 7; minor = 35 } in
  let packed = Bitstream.Frame.pack_address a in
  let a' = Bitstream.Frame.unpack_address packed in
  Alcotest.(check int) "column" a.Bitstream.Frame.column a'.Bitstream.Frame.column;
  Alcotest.(check int) "row" a.Bitstream.Frame.region_row a'.Bitstream.Frame.region_row;
  Alcotest.(check int) "minor" a.Bitstream.Frame.minor a'.Bitstream.Frame.minor

let test_frame_address_invalid () =
  Alcotest.check_raises "bad column" (Invalid_argument "Frame.pack_address: column")
    (fun () ->
      ignore
        (Bitstream.Frame.pack_address
           { Bitstream.Frame.column = 0; region_row = 1; minor = 0 }))

let test_synthesize_frame_count () =
  let part = Lazy.force mini_part in
  (* cols 1-3 of mini are C,C,B: (36+36+30) frames per row, 2 rows *)
  let img =
    Bitstream.Image.synthesize ~seed:1 part (Rect.make ~x:1 ~y:1 ~w:3 ~h:2)
  in
  Alcotest.(check int) "frames" (2 * (36 + 36 + 30))
    (Bitstream.Image.frame_count img)

let test_serialize_roundtrip () =
  let part = Lazy.force mini_part in
  let img =
    Bitstream.Image.synthesize ~seed:9 part (Rect.make ~x:4 ~y:2 ~w:3 ~h:2)
  in
  let bytes = Bitstream.Image.serialize img in
  match Bitstream.Image.parse bytes with
  | Ok img' -> Alcotest.(check bool) "equal" true (Bitstream.Image.equal img img')
  | Error e -> Alcotest.fail e

let test_corruption_detected () =
  let part = Lazy.force mini_part in
  let img =
    Bitstream.Image.synthesize ~seed:9 part (Rect.make ~x:4 ~y:2 ~w:2 ~h:1)
  in
  let bytes = Bitstream.Image.serialize img in
  Bytes.set bytes (Bytes.length bytes / 2)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes / 2)) lxor 1));
  match Bitstream.Image.parse bytes with
  | Error "CRC mismatch" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_parse_garbage () =
  (match Bitstream.Image.parse (Bytes.of_string "short") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short input accepted");
  match Bitstream.Image.parse (Bytes.make 32 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* [body], a wire image without its CRC, followed by its own CRC *)
let resealed body =
  let crc = Bitstream.Crc32.digest body in
  let b = Bytes.extend body 0 4 in
  Bytes.set_int32_be b (Bytes.length body) crc;
  b

(* A matching CRC is not enough: a body cut short or carrying extra
   bytes is refused even when resealed under its own CRC. *)
let test_parse_rejects_truncation_and_trailing () =
  let part = Lazy.force mini_part in
  let wire =
    Bitstream.Image.serialize
      (Bitstream.Image.synthesize ~seed:9 part (Rect.make ~x:4 ~y:2 ~w:2 ~h:1))
  in
  let body = Bytes.sub wire 0 (Bytes.length wire - 4) in
  (match Bitstream.Image.parse (resealed (Bytes.extend body 0 1)) with
  | Error "trailing bytes" -> ()
  | Error e -> Alcotest.fail ("trailing: wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  let cut = Bytes.sub body 0 (Bytes.length body - 10) in
  match Bitstream.Image.parse (resealed cut) with
  | Error "truncated image" -> ()
  | Error e -> Alcotest.fail ("truncated: wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "truncated image accepted"

(* The wire format, pinned: the MD5 of the serialized images and their
   CRCs for fixed (seed, rect) pairs on [mini] and the FX70T.  A change
   to any payload word, address or framing byte moves them. *)
let golden_images =
  [
    ( Devices.mini,
      [ (1, Rect.make ~x:1 ~y:1 ~w:3 ~h:2);
        (9, Rect.make ~x:4 ~y:2 ~w:3 ~h:2);
        (2026, Rect.make ~x:1 ~y:1 ~w:10 ~h:4);
        (0, Rect.make ~x:10 ~y:4 ~w:1 ~h:1) ] );
    ( Devices.virtex5_fx70t,
      [ (7, Rect.make ~x:3 ~y:1 ~w:2 ~h:2);
        (11, Rect.make ~x:1 ~y:1 ~w:12 ~h:8);
        (1000, Rect.make ~x:20 ~y:3 ~w:9 ~h:4);
        (0xFFFFFF, Rect.make ~x:35 ~y:5 ~w:8 ~h:4) ] );
  ]

let test_wire_format_pinned () =
  let wires, crcs =
    List.split
      (List.concat_map
         (fun (grid, cases) ->
           let part = Partition.columnar_exn grid in
           List.map
             (fun (seed, rect) ->
               let img = Bitstream.Image.synthesize ~seed part rect in
               ( Bytes.to_string (Bitstream.Image.serialize img),
                 Bitstream.Image.crc img ))
             cases)
         golden_images)
  in
  Alcotest.(check string)
    "md5 of the serialized images" "9a047de0bab45f6d88d16dad30db762b"
    (Digest.to_hex (Digest.string (String.concat "" wires)));
  Alcotest.(check (list int32))
    "image CRCs"
    [ -1944796210l; 523530816l; -1065970326l; -1248756444l; 129882622l;
      -366730217l; -640487294l; 917571720l ]
    crcs

(* Words allocated by [f ()]: minor words plus the words allocated
   directly in the major heap (major words less those promoted, from
   [Gc.counters]).  The minor part comes from [Gc.minor_words]: on
   OCaml 5 the minor count of [Gc.counters] moves only at a minor
   collection. *)
let allocated_words f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor = Gc.minor_words () and major = direct () in
  let v = f () in
  (v, Gc.minor_words () -. minor +. (direct () -. major))

(* Payload words are written straight into one flat buffer: per frame
   that is 20.5 words of payload and one packed address, nothing else. *)
let test_synthesize_allocation () =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  let rect = Rect.make ~x:1 ~y:1 ~w:12 ~h:8 in
  ignore (Bitstream.Image.synthesize ~seed:1 part rect);
  let img, words =
    allocated_words (fun () -> Bitstream.Image.synthesize ~seed:2 part rect)
  in
  let per_frame = words /. float_of_int (Bitstream.Image.frame_count img) in
  if per_frame > 24. then
    Alcotest.failf "synthesize allocates %.1f words per frame (bound 24)"
      per_frame

(* A frame count read from the wire is checked against the body before
   anything is allocated from it: bodies resealed under their own CRC
   with counts 2^31-1, -1 and one past the real count are refused, and
   the first is refused without allocating for its count. *)
let test_parse_checks_frame_count () =
  let part = Lazy.force mini_part in
  let img =
    Bitstream.Image.synthesize ~seed:9 part (Rect.make ~x:4 ~y:2 ~w:2 ~h:1)
  in
  let wire = Bitstream.Image.serialize img in
  let count_at = 8 + String.length (Bitstream.Image.device img) in
  let with_count n =
    let body = Bytes.sub wire 0 (Bytes.length wire - 4) in
    Bytes.set_int32_be body count_at n;
    resealed body
  in
  let real = Int32.of_int (Bitstream.Image.frame_count img) in
  List.iter
    (fun n ->
      match Bitstream.Image.parse (with_count n) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "frame count %ld accepted" n
      | exception e ->
        Alcotest.failf "frame count %ld raised %s" n (Printexc.to_string e))
    [ Int32.max_int; -1l; Int32.succ real ];
  let huge = with_count Int32.max_int in
  let _, words = allocated_words (fun () -> Bitstream.Image.parse huge) in
  let bytes = words *. float_of_int (Sys.word_size / 8) in
  if bytes >= 1e6 then
    Alcotest.failf "parsing a count of 2^31-1 allocated %.0f bytes" bytes

(* The relocation property (Definition .1 made executable): relocating
   the source bitstream into any compatible area produces exactly the
   bitstream one would synthesize there. *)
let test_relocation_equals_resynthesis () =
  let part = Lazy.force mini_part in
  let src = Rect.make ~x:1 ~y:1 ~w:2 ~h:2 in
  let img = Bitstream.Image.synthesize ~seed:3 part src in
  let sites = Compat.relocation_sites part src in
  Alcotest.(check bool) "several sites" true (List.length sites > 1);
  List.iter
    (fun dst ->
      match Bitstream.Relocate.relocate part ~src ~dst img with
      | Ok img' ->
        let direct = Bitstream.Image.synthesize ~seed:3 part dst in
        Alcotest.(check bool)
          (Printf.sprintf "relocated to %s equals direct synthesis"
             (Rect.to_string dst))
          true
          (Bitstream.Image.equal img' direct);
        (* addresses are rewritten, the payload shared, never copied *)
        Alcotest.(check bool) "payload shared" true
          (Bitstream.Image.payload img' == Bitstream.Image.payload img)
      | Error e -> Alcotest.fail (Format.asprintf "%a" Bitstream.Relocate.pp_error e))
    sites

(* Relocation allocates a new address array and the image around it:
   about one word per frame, bounded at 2. *)
let test_relocation_allocation () =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  let src = Rect.make ~x:1 ~y:1 ~w:12 ~h:4 in
  let dst = Rect.make ~x:1 ~y:5 ~w:12 ~h:4 in
  let img = Bitstream.Image.synthesize ~seed:2 part src in
  let relocate () = Bitstream.Relocate.relocate part ~src ~dst img in
  ignore (relocate ());
  match allocated_words relocate with
  | Ok _, words ->
    let per_frame = words /. float_of_int (Bitstream.Image.frame_count img) in
    if per_frame > 2. then
      Alcotest.failf "relocate allocates %.2f words per frame (bound 2)"
        per_frame
  | Error e, _ -> Alcotest.fail (Format.asprintf "%a" Bitstream.Relocate.pp_error e)

let test_relocation_rejects_incompatible () =
  let part = Lazy.force mini_part in
  let src = Rect.make ~x:1 ~y:1 ~w:2 ~h:2 in
  (* cols 2-3 are C,B: incompatible with cols 1-2 = C,C *)
  let dst = Rect.make ~x:2 ~y:3 ~w:2 ~h:2 in
  let img = Bitstream.Image.synthesize ~seed:3 part src in
  match Bitstream.Relocate.relocate part ~src ~dst img with
  | Error (Bitstream.Relocate.Incompatible _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Bitstream.Relocate.pp_error e)
  | Ok _ -> Alcotest.fail "incompatible relocation accepted"

let test_relocation_rejects_wrong_device () =
  let mini = Lazy.force mini_part in
  let fig1 = Partition.columnar_exn Devices.fig1 in
  let src = Rect.make ~x:1 ~y:1 ~w:1 ~h:1 in
  let img = Bitstream.Image.synthesize ~seed:3 fig1 src in
  match Bitstream.Relocate.relocate mini ~src ~dst:src img with
  | Error (Bitstream.Relocate.Wrong_device _) -> ()
  | _ -> Alcotest.fail "wrong-device image accepted"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A rectangle that leaves the device is refused, never raised, in
   either direction, through the image and through the wire format. *)
let test_relocation_rejects_outside_device () =
  let part = Partition.columnar_exn Devices.virtex5_fx70t in
  let inside = Rect.make ~x:3 ~y:1 ~w:2 ~h:2 in
  let outside = Rect.make ~x:42 ~y:1 ~w:2 ~h:2 in
  let img = Bitstream.Image.synthesize ~seed:1 part inside in
  let wire = Bitstream.Image.serialize img in
  let names_outside what msg =
    if not (contains msg (Rect.to_string outside)) then
      Alcotest.failf "%s: %S does not name %s" what msg (Rect.to_string outside)
  in
  List.iter
    (fun (src, dst) ->
      let what = Rect.to_string src ^ " -> " ^ Rect.to_string dst in
      (match Bitstream.Relocate.relocate part ~src ~dst img with
      | Error (Bitstream.Relocate.Incompatible msg) -> names_outside what msg
      | Error e ->
        Alcotest.failf "%s: wrong error: %a" what Bitstream.Relocate.pp_error e
      | Ok _ -> Alcotest.failf "%s: relocation accepted" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
      match Bitstream.Relocate.relocate_serialized part ~src ~dst wire with
      | Error msg -> names_outside (what ^ " (wire)") msg
      | Ok _ -> Alcotest.failf "%s: wire relocation accepted" what
      | exception e ->
        Alcotest.failf "%s: wire relocation raised %s" what (Printexc.to_string e))
    [ (inside, outside); (outside, inside) ]

let test_relocate_serialized_end_to_end () =
  let part = Lazy.force mini_part in
  let src = Rect.make ~x:4 ~y:1 ~w:2 ~h:2 in
  let dst = Rect.make ~x:4 ~y:3 ~w:2 ~h:2 in
  let wire = Bitstream.Image.serialize (Bitstream.Image.synthesize ~seed:5 part src) in
  match Bitstream.Relocate.relocate_serialized part ~src ~dst wire with
  | Ok wire' -> (
    match Bitstream.Image.parse wire' with
    | Ok img ->
      Alcotest.(check bool) "payload preserved" true
        (Bitstream.Image.payload_equal img
           (Bitstream.Image.synthesize ~seed:5 part src));
      (* CRC of the relocated stream is fresh and correct: parse above
         validated it; also the addresses moved *)
      List.iter
        (fun (f : Bitstream.Frame.t) ->
          Alcotest.(check bool) "address in target" true
            (Rect.contains_point dst f.Bitstream.Frame.addr.Bitstream.Frame.column
               f.Bitstream.Frame.addr.Bitstream.Frame.region_row))
        (Bitstream.Image.frames img)
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let prop_relocation_roundtrip =
  QCheck2.Test.make ~name:"relocation round-trips (src -> dst -> src)" ~count:60
    (QCheck2.Gen.make_primitive
       ~gen:(fun rng ->
         let g = Devices.random ~max_width:8 ~max_height:4 rng in
         let part = Partition.columnar_exn g in
         let w = 1 + Random.State.int rng 2 and h = 1 + Random.State.int rng 2 in
         let x = 1 + Random.State.int rng (Partition.width part - w + 1) in
         let y = 1 + Random.State.int rng (Partition.height part - h + 1) in
         let src = Rect.make ~x ~y ~w ~h in
         let sites = Compat.relocation_sites ~avoid_forbidden:false part src in
         let dst = List.nth sites (Random.State.int rng (List.length sites)) in
         (part, src, dst, Random.State.int rng 1000))
       ~shrink:(fun _ -> Seq.empty))
    (fun (part, src, dst, seed) ->
      let img = Bitstream.Image.synthesize ~seed part src in
      match Bitstream.Relocate.relocate part ~src ~dst img with
      | Error _ -> false
      | Ok img' -> (
        match Bitstream.Relocate.relocate part ~src:dst ~dst:src img' with
        | Error _ -> false
        | Ok img'' -> Bitstream.Image.equal img img''))

let suites =
  [
    ( "bitstream.crc",
      [
        Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "incremental" `Quick test_crc32_incremental;
      ] );
    ( "bitstream.frame",
      [
        Alcotest.test_case "address pack/unpack" `Quick test_frame_address_pack;
        Alcotest.test_case "address validation" `Quick test_frame_address_invalid;
      ] );
    ( "bitstream.image",
      [
        Alcotest.test_case "frame count" `Quick test_synthesize_frame_count;
        Alcotest.test_case "serialize round trip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
        Alcotest.test_case "garbage rejected" `Quick test_parse_garbage;
        Alcotest.test_case "truncation and trailing bytes rejected" `Quick
          test_parse_rejects_truncation_and_trailing;
        Alcotest.test_case "frame count checked before allocating" `Quick
          test_parse_checks_frame_count;
        Alcotest.test_case "wire format pinned" `Quick test_wire_format_pinned;
        Alcotest.test_case "synthesis allocation bound" `Quick
          test_synthesize_allocation;
      ] );
    ( "bitstream.relocate",
      [
        Alcotest.test_case "equals resynthesis" `Quick test_relocation_equals_resynthesis;
        Alcotest.test_case "relocation allocation bound" `Quick
          test_relocation_allocation;
        Alcotest.test_case "rejects incompatible" `Quick
          test_relocation_rejects_incompatible;
        Alcotest.test_case "rejects wrong device" `Quick
          test_relocation_rejects_wrong_device;
        Alcotest.test_case "rejects areas outside the device" `Quick
          test_relocation_rejects_outside_device;
        Alcotest.test_case "serialized end to end" `Quick
          test_relocate_serialized_end_to_end;
      ]
      @ Generators.qsuite [ prop_relocation_roundtrip ] );
  ]
