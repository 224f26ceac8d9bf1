(* See free_space.mli.  Device sizes are small (the FX70T is 42 x 8
   tiles: 35 CLB, 5 BRAM and 2 DSP columns), so the sweeps are
   O(W * H^2) with tiny constants; the
   incremental paths exist because the differential tests pin them to
   the sweep, proving the split/survivor algebra right at any size. *)

module R = Device.Rect

type free_map = { fm_w : int; fm_h : int; fm_free : bool array array }

let free_map part ~occupied =
  let g = part.Device.Partition.grid in
  let w = Device.Grid.width g and h = Device.Grid.height g in
  (* 1-based: index [col].[row] *)
  let free = Array.make_matrix (w + 1) (h + 1) false in
  for col = 1 to w do
    List.iter
      (fun (lo, hi) ->
        for row = lo to hi do
          free.(col).(row) <- true
        done)
      (Device.Grid.free_intervals g ~occupied col)
  done;
  { fm_w = w; fm_h = h; fm_free = free }

let cell_free fm col row =
  col >= 1 && col <= fm.fm_w && row >= 1 && row <= fm.fm_h
  && fm.fm_free.(col).(row)

let col_free fm col y1 y2 =
  let ok = ref (col >= 1 && col <= fm.fm_w) in
  let row = ref y1 in
  while !ok && !row <= y2 do
    if not (cell_free fm col !row) then ok := false;
    incr row
  done;
  !ok

let row_free fm row x1 x2 =
  let ok = ref (row >= 1 && row <= fm.fm_h) in
  let col = ref x1 in
  while !ok && !col <= x2 do
    if not (cell_free fm !col row) then ok := false;
    incr col
  done;
  !ok

let sort_rects rects = List.sort_uniq R.compare rects

(* Drop every rectangle contained in a different one of the set (and
   deduplicate).  The slices produced by [add] need this; elsewhere it
   is a cheap safety net. *)
let prune rects =
  let rects = sort_rects rects in
  List.filter
    (fun a ->
      not
        (List.exists (fun b -> (not (R.equal a b)) && R.contains b a) rects))
    rects

(* All maximal free rectangles of [fm]; with [~through:f], only those
   intersecting [f].  For each row span (y1, y2) the maximal x-runs of
   columns free over the whole span are maximal horizontally by
   construction; a run is a maximal rectangle iff it cannot extend to
   row y1-1 or y2+1 as a whole (the extended rectangle shows up at a
   taller row span). *)
let sweep ?through fm =
  let out = ref [] in
  for y1 = 1 to fm.fm_h do
    for y2 = y1 to fm.fm_h do
      let rows_ok =
        match through with
        | None -> true
        | Some f -> not (y2 < f.R.y || y1 > R.y2 f)
      in
      if rows_ok then begin
        let c = ref 1 in
        while !c <= fm.fm_w do
          if col_free fm !c y1 y2 then begin
            let x1 = !c in
            while !c < fm.fm_w && col_free fm (!c + 1) y1 y2 do
              incr c
            done;
            let x2 = !c in
            let grows_up = y1 > 1 && row_free fm (y1 - 1) x1 x2 in
            let grows_down = y2 < fm.fm_h && row_free fm (y2 + 1) x1 x2 in
            let through_ok =
              match through with
              | None -> true
              | Some f -> not (x2 < f.R.x || x1 > R.x2 f)
            in
            if (not grows_up) && (not grows_down) && through_ok then
              out :=
                R.make ~x:x1 ~y:y1 ~w:(x2 - x1 + 1) ~h:(y2 - y1 + 1) :: !out
          end;
          incr c
        done
      end
    done
  done;
  !out

let recompute part ~occupied = sort_rects (sweep (free_map part ~occupied))

let add mers r =
  let split m =
    if not (R.overlaps m r) then [ m ]
    else begin
      let acc = ref [] in
      if m.R.x < r.R.x then
        acc := R.make ~x:m.R.x ~y:m.R.y ~w:(r.R.x - m.R.x) ~h:m.R.h :: !acc;
      if R.x2 m > R.x2 r then
        acc :=
          R.make ~x:(R.x2 r + 1) ~y:m.R.y ~w:(R.x2 m - R.x2 r) ~h:m.R.h
          :: !acc;
      if m.R.y < r.R.y then
        acc := R.make ~x:m.R.x ~y:m.R.y ~w:m.R.w ~h:(r.R.y - m.R.y) :: !acc;
      if R.y2 m > R.y2 r then
        acc :=
          R.make ~x:m.R.x ~y:(R.y2 r + 1) ~w:m.R.w ~h:(R.y2 m - R.y2 r)
          :: !acc;
      !acc
    end
  in
  prune (List.concat_map split mers)

let remove part ~occupied mers r =
  let fm = free_map part ~occupied in
  (* An old MER stays maximal unless it can now extend — necessarily
     into cells freed by [r]; the extended maximal rectangle intersects
     [r] and is therefore produced by the [~through] sweep. *)
  let survives m =
    let grows =
      (m.R.x > 1 && col_free fm (m.R.x - 1) m.R.y (R.y2 m))
      || (R.x2 m < fm.fm_w && col_free fm (R.x2 m + 1) m.R.y (R.y2 m))
      || (m.R.y > 1 && row_free fm (m.R.y - 1) m.R.x (R.x2 m))
      || (R.y2 m < fm.fm_h && row_free fm (R.y2 m + 1) m.R.x (R.x2 m))
    in
    not grows
  in
  prune (List.filter survives mers @ sweep ~through:r fm)

let largest_area rects =
  List.fold_left (fun acc r -> max acc (R.area r)) 0 rects

let equal_sets a b =
  let a = sort_rects a and b = sort_rects b in
  List.length a = List.length b && List.for_all2 R.equal a b
