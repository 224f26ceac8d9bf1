open Device

type candidate = { rect : Rect.t; waste : int }

let kind_index = function
  | Resource.Clb -> 0
  | Resource.Bram -> 1
  | Resource.Dsp -> 2
  | Resource.Io -> 3

(* Per-kind column prefix counts, flat: [pref.(k * (width + 1) + x)] is
   the number of columns of kind [k] among columns 1..x. *)
let prefix_counts part =
  let w = Partition.width part in
  let pref = Array.make (4 * (w + 1)) 0 in
  for x = 1 to w do
    let k = kind_index (Partition.column_type part x).Resource.kind in
    for ki = 0 to 3 do
      let row = ki * (w + 1) in
      pref.(row + x) <- (pref.(row + x - 1) + if ki = k then 1 else 0)
    done
  done;
  pref

let window_kind_counts pref ~width x w =
  Array.init 4 (fun ki ->
      let row = ki * (width + 1) in
      pref.(row + x + w - 1) - pref.(row + x - 1))

let demand_by_index demand =
  let d = Array.make 4 0 in
  List.iter
    (fun (k, n) -> d.(kind_index k) <- d.(kind_index k) + n)
    demand;
  d

(* Minimal height such that h * cols(k) >= demand(k) for all kinds;
   0 if some demanded kind has no column in the window. *)
let min_height_for d counts =
  let h = ref 1 and ok = ref true in
  for ki = 0 to 3 do
    if d.(ki) > 0 then
      if counts.(ki) = 0 then ok := false
      else h := max !h ((d.(ki) + counts.(ki) - 1) / counts.(ki))
  done;
  if !ok then !h else 0

let frames_by_index part =
  let frames = Grid.frames part.Partition.grid in
  [|
    frames Resource.Clb; frames Resource.Bram; frames Resource.Dsp;
    frames Resource.Io;
  |]

let waste_of part_frames d counts h =
  let acc = ref 0 in
  for ki = 0 to 3 do
    acc := !acc + (part_frames.(ki) * ((h * counts.(ki)) - d.(ki)))
  done;
  !acc

let stride = 5

(* [Grid.rect_hits_forbidden] on the fields: no rectangle is built for
   each one generated. *)
let rec hits_forbidden forbidden x y w h =
  match forbidden with
  | [] -> false
  | (r : Rect.t) :: rest ->
    (r.Rect.x <= x + w - 1 && x <= Rect.x2 r && r.Rect.y <= y + h - 1
    && y <= Rect.y2 r)
    || hits_forbidden rest x y w h

(* Positions [0 .. n-1] in increasing [keys] order, stably: an LSD
   radix sort, one byte per pass, with as many passes as the largest key
   has bytes.  Keys are read as unsigned ints.  Its memory depends on
   [n] alone, never on the keys, which any frame count can make large. *)
let radix_order keys n =
  let order = Array.init n Fun.id and spare = Array.make n 0 in
  let count = Array.make 257 0 in
  let all = ref 0 in
  for j = 0 to n - 1 do
    all := !all lor keys.(j)
  done;
  let src = ref order and dst = ref spare and shift = ref 0 in
  while !shift < Sys.int_size && !all lsr !shift <> 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 257 0;
    for j = 0 to n - 1 do
      let b = ((keys.(s.(j)) lsr sh) land 255) + 1 in
      count.(b) <- count.(b) + 1
    done;
    for b = 1 to 256 do
      count.(b) <- count.(b) + count.(b - 1)
    done;
    for j = 0 to n - 1 do
      let b = (keys.(s.(j)) lsr sh) land 255 in
      d.(count.(b)) <- s.(j);
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  !src

(* Candidates are counted, then written, in ascending (x, y, w, h)
   order into buckets of equal waste laid out by increasing waste: a
   stable counting sort, which gives the (waste, x, y, w, h) order of
   [enumerate] without comparing rectangles.  The buckets are the ranks
   of the shapes' (x, w, h) wastes, found by [radix_order]. *)
let table part demand =
  let width = Partition.width part and height = Partition.height part in
  let forbidden = Grid.forbidden part.Partition.grid in
  let pref = prefix_counts part in
  let d = demand_by_index demand in
  let fr = frames_by_index part in
  (* per window (x, w): its minimal height (0: none), and where its
     shapes start in generation order: shape (x, w, h) is number
     [first.(window x w) + h] *)
  let window x w = (x * (width + 1)) + w in
  let hmin = Array.make ((width + 1) * (width + 1)) 0 in
  let first = Array.make (Array.length hmin) 0 in
  (* the shapes' wastes in generation order: at most width (width + 1) / 2
     windows of at most [height] shapes each *)
  let keys = Array.make (width * (width + 1) / 2 * height) 0 in
  let nshapes = ref 0 and least = ref max_int in
  for x = 1 to width do
    for w = 1 to width - x + 1 do
      let counts = window_kind_counts pref ~width x w in
      let h0 = min_height_for d counts in
      hmin.(window x w) <- h0;
      first.(window x w) <- !nshapes - h0;
      if h0 > 0 then
        for h = h0 to height do
          let v = waste_of fr d counts h in
          keys.(!nshapes) <- v;
          if v < !least then least := v;
          incr nshapes
        done
    done
  done;
  let nshapes = !nshapes and least = !least in
  (* the wastes as offsets from the least: exact as unsigned ints, and
     in the same order *)
  for j = 0 to nshapes - 1 do
    keys.(j) <- keys.(j) - least
  done;
  (* per shape, the rank of its waste among the distinct wastes *)
  let rank = Array.make nshapes 0 in
  let levels = Array.make nshapes 0 and m = ref 0 in
  Array.iter
    (fun j ->
      let v = keys.(j) + least in
      if !m = 0 || levels.(!m - 1) <> v then begin
        levels.(!m) <- v;
        incr m
      end;
      rank.(j) <- !m - 1)
    (radix_order keys nshapes);
  let m = !m in
  (* next.(r): where the next candidate of waste rank r goes *)
  let next = Array.make (m + 1) 0 in
  for x = 1 to width do
    for y = 1 to height do
      for w = 1 to width - x + 1 do
        let h0 = hmin.(window x w) and f = first.(window x w) in
        if h0 > 0 then
          for h = h0 to height - y + 1 do
            if not (hits_forbidden forbidden x y w h) then begin
              let r = rank.(f + h) + 1 in
              next.(r) <- next.(r) + 1
            end
          done
      done
    done
  done;
  for r = 1 to m do
    next.(r) <- next.(r) + next.(r - 1)
  done;
  let out = Array.make (stride * next.(m)) 0 in
  for x = 1 to width do
    for y = 1 to height do
      for w = 1 to width - x + 1 do
        let h0 = hmin.(window x w) and f = first.(window x w) in
        if h0 > 0 then
          for h = h0 to height - y + 1 do
            if not (hits_forbidden forbidden x y w h) then begin
              let r = rank.(f + h) in
              let o = stride * next.(r) in
              next.(r) <- next.(r) + 1;
              out.(o) <- x;
              out.(o + 1) <- y;
              out.(o + 2) <- w;
              out.(o + 3) <- h;
              out.(o + 4) <- levels.(r)
            end
          done
      done
    done
  done;
  out

let enumerate part demand =
  let t = table part demand in
  List.init
    (Array.length t / stride)
    (fun i ->
      let o = stride * i in
      {
        rect = Rect.make ~x:t.(o) ~y:t.(o + 1) ~w:t.(o + 2) ~h:t.(o + 3);
        waste = t.(o + 4);
      })

let min_waste part demand =
  let t = table part demand in
  if Array.length t = 0 then None else Some t.(4)
