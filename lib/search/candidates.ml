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

(* The columns of each kind in window (x, w), into [counts]. *)
let window_kind_counts pref ~width counts x w =
  for ki = 0 to 3 do
    let row = ki * (width + 1) in
    counts.(ki) <- pref.(row + x + w - 1) - pref.(row + x - 1)
  done

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

(* The generator ranks the shapes (x, w, h) of the demand once and
   writes candidates one waste level at a time.  Within a level it goes
   x-group by x-group, y ascending, the group's shapes in (w, h) order:
   the (x, y, w, h) order, so the levels written so far are a prefix of
   the (waste, x, y, w, h) order of [enumerate].  A shape is packed in
   one int as (x, w, h) in base (width + 1, height + 1). *)
type generator = {
  height : int;
  forbidden : Rect.t list;
  dh : int;  (* height + 1 *)
  dwh : int;  (* (width + 1) * (height + 1) *)
  shapes : int array;  (* packed, in (x, w, h) order *)
  keys : int array;  (* per shape: its waste less [least] *)
  least : int;
  order : int array;  (* the shapes by increasing waste, stably *)
  least_cov : int array;
  mutable next : int;  (* position in [order] of the next level *)
  mutable data : int array;
  mutable written : int;
}

let generator part demand =
  let width = Partition.width part and height = Partition.height part in
  let forbidden = Grid.forbidden part.Partition.grid in
  let pref = prefix_counts part in
  let d = demand_by_index demand in
  let fr = frames_by_index part in
  (* the shapes of window (x, w) are its heights from its minimal one;
     a window's shortest shape has a legal position if any of its
     shapes has one, and covers the least of every kind *)
  let nshapes = ref 0 and counts = Array.make 4 0 in
  let least_cov = Array.make 4 max_int in
  for x = 1 to width do
    for w = 1 to width - x + 1 do
      window_kind_counts pref ~width counts x w;
      let h0 = min_height_for d counts in
      if h0 > 0 && h0 <= height then begin
        nshapes := !nshapes + (height - h0 + 1);
        let y = ref 1 in
        while !y <= height - h0 + 1 && hits_forbidden forbidden x !y w h0 do
          incr y
        done;
        if !y <= height - h0 + 1 then
          for k = 0 to 3 do
            least_cov.(k) <- min least_cov.(k) (h0 * counts.(k))
          done
      end
    done
  done;
  let n = !nshapes in
  let shapes = Array.make n 0 and keys = Array.make n 0 in
  let dh = height + 1 in
  let dwh = (width + 1) * dh in
  let j = ref 0 and least = ref max_int in
  for x = 1 to width do
    for w = 1 to width - x + 1 do
      window_kind_counts pref ~width counts x w;
      let h0 = min_height_for d counts in
      if h0 > 0 then
        for h = h0 to height do
          let v = waste_of fr d counts h in
          shapes.(!j) <- (x * dwh) + (w * dh) + h;
          keys.(!j) <- v;
          if v < !least then least := v;
          incr j
        done
    done
  done;
  let least = !least in
  (* the wastes as offsets from the least: exact as unsigned ints, and
     in the same order *)
  for j = 0 to n - 1 do
    keys.(j) <- keys.(j) - least
  done;
  {
    height;
    forbidden;
    dh;
    dwh;
    shapes;
    keys;
    least;
    order = radix_order keys n;
    least_cov = Array.map (fun c -> if c = max_int then 0 else c) least_cov;
    next = 0;
    data = [||];
    written = 0;
  }

let written g = g.written
let data g = g.data
let exhausted g = g.next = Array.length g.order
let next_waste g = g.keys.(g.order.(g.next)) + g.least
let least_coverage g = g.least_cov

let write_level g =
  let order = g.order and shapes = g.shapes and keys = g.keys in
  let height = g.height and dh = g.dh and dwh = g.dwh in
  let start = g.next in
  let key = keys.(order.(start)) in
  (* the level's shapes, and at most how many candidates they have *)
  let stop = ref start and most = ref 0 in
  while !stop < Array.length order && keys.(order.(!stop)) = key do
    most := !most + height - (shapes.(order.(!stop)) mod dh) + 1;
    incr stop
  done;
  let stop = !stop in
  let need = stride * (g.written + !most) in
  if need > Array.length g.data then begin
    let data = Array.make (max need (2 * Array.length g.data)) 0 in
    Array.blit g.data 0 data 0 (stride * g.written);
    g.data <- data
  end;
  let data = g.data and waste = key + g.least and written = ref g.written in
  let a = ref start in
  while !a < stop do
    let x = shapes.(order.(!a)) / dwh in
    let b = ref (!a + 1) in
    while !b < stop && shapes.(order.(!b)) / dwh = x do
      incr b
    done;
    for y = 1 to height do
      for p = !a to !b - 1 do
        let s = shapes.(order.(p)) in
        let w = (s mod dwh) / dh and h = s mod dh in
        if y + h - 1 <= height && not (hits_forbidden g.forbidden x y w h) then begin
          let o = stride * !written in
          data.(o) <- x;
          data.(o + 1) <- y;
          data.(o + 2) <- w;
          data.(o + 3) <- h;
          data.(o + 4) <- waste;
          incr written
        end
      done
    done;
    a := !b
  done;
  g.written <- !written;
  g.next <- stop

let write_first g =
  while g.written = 0 && not (exhausted g) do
    write_level g
  done

let enumerate part demand =
  let g = generator part demand in
  while not (exhausted g) do
    write_level g
  done;
  let t = g.data in
  List.init g.written (fun i ->
      let o = stride * i in
      {
        rect = Rect.make ~x:t.(o) ~y:t.(o + 1) ~w:t.(o + 2) ~h:t.(o + 3);
        waste = t.(o + 4);
      })

let min_waste part demand =
  let g = generator part demand in
  write_first g;
  if g.written = 0 then None else Some g.data.(4)
