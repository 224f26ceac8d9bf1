module R = Device.Rect
module P = Device.Partition
module Res = Device.Resource
module D = Rfloor_diag.Diagnostic

type entry = {
  e_name : string;
  e_rect : R.t;
  e_demand : Res.demand;
  e_image : Bitstream.Image.t;
}

type t = {
  part : P.t;
  rev_entries : entry list;  (* newest first *)
  mers : R.t list;
  usable : int;
}

let create part =
  let usable =
    List.fold_left (fun acc (_, n) -> acc + n) 0
      (Device.Grid.usable_tiles part.P.grid)
  in
  { part;
    rev_entries = [];
    mers = Free_space.recompute part ~occupied:[];
    usable }

let partition t = t.part
let entries t = List.rev t.rev_entries
let find t name = List.find_opt (fun e -> e.e_name = name) t.rev_entries
let modules t = List.length t.rev_entries
let occupied t = List.map (fun e -> e.e_rect) t.rev_entries
let free_rects t = t.mers
let usable_area t = t.usable

let occupied_area t =
  List.fold_left (fun acc e -> acc + R.area e.e_rect) 0 t.rev_entries

let occupancy t =
  if t.usable = 0 then 0.
  else float_of_int (occupied_area t) /. float_of_int t.usable

let fragmentation t =
  let free = t.usable - occupied_area t in
  if free = 0 then 0.
  else
    1. -. (float_of_int (Free_space.largest_area t.mers) /. float_of_int free)

(* Demand-driven best fit inside the maximal free rectangles.  On a
   columnar device a rectangle spanning columns x1..x2 at height h
   covers h tiles per column, so for each candidate column range the
   minimal height and the wasted frames are closed forms over the
   per-kind column counts, which grow by one column as x2 does. *)
let kind_index = function
  | Res.Clb -> 0
  | Res.Bram -> 1
  | Res.Dsp -> 2
  | Res.Io -> 3

let admission_rect_in part ~mers demand =
  let demand = List.filter (fun (_, n) -> n > 0) demand in
  if demand = [] then None
  else begin
    let nkinds = List.length Res.all_kinds in
    (* per kind: the largest single entry bounds the height from below
       (each entry must fit on its own), the sum is what the waste is
       counted against, as [Resource.demand_get] sums it *)
    let need = Array.make nkinds 0 and total = Array.make nkinds 0 in
    List.iter
      (fun (k, n) ->
        let i = kind_index k in
        need.(i) <- max need.(i) n;
        total.(i) <- total.(i) + n)
      demand;
    let frames = Array.make nkinds 0 in
    List.iter
      (fun k -> frames.(kind_index k) <- Device.Grid.frames part.P.grid k)
      Res.all_kinds;
    (* indexed by column, 1-based *)
    let kind =
      Array.init (P.width part + 1) (fun c ->
          if c = 0 then 0 else kind_index (P.column_type part c).Res.kind)
    in
    let count = Array.make nkinds 0 in
    let best = ref None in
    let bw = ref 0 and ba = ref 0 and bx = ref 0 and by = ref 0 in
    List.iter
      (fun (m : R.t) ->
        let y = m.R.y in
        for x1 = m.R.x to R.x2 m do
          Array.fill count 0 nkinds 0;
          for x2 = x1 to R.x2 m do
            count.(kind.(x2)) <- count.(kind.(x2)) + 1;
            let h = ref 1 in
            for i = 0 to nkinds - 1 do
              if need.(i) > 0 then
                if count.(i) = 0 then h := max_int
                else if !h <> max_int then
                  h := max !h ((need.(i) + count.(i) - 1) / count.(i))
            done;
            let h = !h in
            if h <= m.R.h then begin
              let wasted = ref 0 in
              for i = 0 to nkinds - 1 do
                let extra = (count.(i) * h) - total.(i) in
                if extra > 0 then wasted := !wasted + (frames.(i) * extra)
              done;
              let wasted = !wasted and area = (x2 - x1 + 1) * h in
              (* strict: the first of several equal keys is kept *)
              let better =
                Option.is_none !best || wasted < !bw
                || wasted = !bw
                   && (area < !ba
                      || area = !ba && (x1 < !bx || x1 = !bx && y < !by))
              in
              if better then begin
                best := Some (R.make ~x:x1 ~y ~w:(x2 - x1 + 1) ~h);
                bw := wasted;
                ba := area;
                bx := x1;
                by := y
              end
            end
          done
        done)
      mers;
    !best
  end

let admission_rect t demand = admission_rect_in t.part ~mers:t.mers demand

let default_seed name = Hashtbl.hash name land 0xFFFFFF

let place ?seed t name demand =
  match find t name with
  | Some _ ->
    Error
      (D.diagf ~code:"RF702" D.Error (D.Layout name)
         "module %S is already placed" name)
  | None -> (
    match admission_rect t demand with
    | None ->
      Error
        (D.diagf ~code:"RF701" D.Error (D.Layout name)
           "no free rectangle admits %a" Res.pp_demand demand)
    | Some rect ->
      let seed = match seed with Some s -> s | None -> default_seed name in
      let image = Bitstream.Image.synthesize ~seed t.part rect in
      let e = { e_name = name; e_rect = rect; e_demand = demand;
                e_image = image } in
      Ok
        ( { t with rev_entries = e :: t.rev_entries;
            mers = Free_space.add t.mers rect },
          rect ))

let place_at ?seed t name demand rect =
  let g = t.part.P.grid in
  let err fmt = Format.kasprintf Fun.id fmt in
  let problem =
    if find t name <> None then
      Some ("RF702", err "module %S is already placed" name)
    else if
      not
        (R.within ~width:(Device.Grid.width g) ~height:(Device.Grid.height g)
           rect)
    then Some ("RF701", err "%s leaves the device" (R.to_string rect))
    else if Device.Grid.rect_hits_forbidden g rect then
      Some ("RF701", err "%s overlaps a forbidden area" (R.to_string rect))
    else if List.exists (fun e -> R.overlaps e.e_rect rect) t.rev_entries then
      Some ("RF701", err "%s overlaps a placed module" (R.to_string rect))
    else if not (Device.Compat.satisfies t.part rect demand) then
      Some
        ("RF701", err "%s does not cover %a" (R.to_string rect)
           Res.pp_demand demand)
    else None
  in
  match problem with
  | Some (code, msg) ->
    Error (D.diagf ~code D.Error (D.Layout name) "%s" msg)
  | None ->
    let seed = match seed with Some s -> s | None -> default_seed name in
    let image = Bitstream.Image.synthesize ~seed t.part rect in
    let e = { e_name = name; e_rect = rect; e_demand = demand;
              e_image = image } in
    Ok
      { t with rev_entries = e :: t.rev_entries;
        mers = Free_space.add t.mers rect }

let remove t name =
  match find t name with
  | None ->
    Error
      (D.diagf ~code:"RF702" D.Error (D.Layout name) "module %S is not placed"
         name)
  | Some e ->
    let rev_entries =
      List.filter (fun e' -> e'.e_name <> name) t.rev_entries
    in
    let occupied = List.map (fun e' -> e'.e_rect) rev_entries in
    Ok
      { t with rev_entries;
        mers = Free_space.remove t.part ~occupied t.mers e.e_rect }

let move t name dst =
  match find t name with
  | None ->
    Error
      (D.diagf ~code:"RF702" D.Error (D.Layout name) "module %S is not placed"
         name)
  | Some e ->
    let src = e.e_rect in
    let others =
      List.filter (fun e' -> e'.e_name <> name) t.rev_entries
    in
    let free_dst =
      (not (Device.Grid.rect_hits_forbidden t.part.P.grid dst))
      && (not (R.overlaps src dst))
      && not (List.exists (fun e' -> R.overlaps e'.e_rect dst) others)
    in
    if not free_dst then
      Error
        (D.diagf ~code:"RF705" D.Error (D.Layout name)
           "destination %s is not free" (R.to_string dst))
    else (
      match Bitstream.Relocate.relocate t.part ~src ~dst e.e_image with
      | Error _ ->
        Error
          (D.diagf ~code:"RF705" D.Error (D.Layout name)
             "relocation filter refused %s -> %s" (R.to_string src)
             (R.to_string dst))
      | Ok image ->
        let rev_entries =
          List.map
            (fun e' ->
              if e'.e_name = name then { e' with e_rect = dst; e_image = image }
              else e')
            t.rev_entries
        in
        let without = List.map (fun e' -> e'.e_rect) others in
        let mers = Free_space.remove t.part ~occupied:without t.mers src in
        Ok { t with rev_entries; mers = Free_space.add mers dst })

let check_free_rects t =
  Free_space.equal_sets t.mers
    (Free_space.recompute t.part ~occupied:(occupied t))

let render t =
  let marks =
    List.mapi
      (fun i e ->
        (e.e_rect, Char.chr (Char.code 'A' + (i mod 26))))
      (entries t)
  in
  Device.Grid.render ~marks t.part.P.grid
