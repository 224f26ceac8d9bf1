type t = { x : int; y : int; w : int; h : int }

let make ~x ~y ~w ~h =
  if w <= 0 || h <= 0 then
    invalid_arg (Printf.sprintf "Rect.make: non-positive size %dx%d" w h);
  if x < 1 || y < 1 then
    invalid_arg (Printf.sprintf "Rect.make: origin (%d,%d) below 1" x y);
  { x; y; w; h }

let x2 r = r.x + r.w - 1
let y2 r = r.y + r.h - 1
let area r = r.w * r.h

let overlaps a b =
  a.x <= x2 b && b.x <= x2 a && a.y <= y2 b && b.y <= y2 a

let contains_point r px py = r.x <= px && px <= x2 r && r.y <= py && py <= y2 r

let contains outer inner =
  outer.x <= inner.x && x2 inner <= x2 outer && outer.y <= inner.y
  && y2 inner <= y2 outer

let within ~width ~height r = r.x >= 1 && r.y >= 1 && x2 r <= width && y2 r <= height

let center r =
  ( float_of_int r.x +. ((float_of_int r.w -. 1.) /. 2.),
    float_of_int r.y +. ((float_of_int r.h -. 1.) /. 2.) )

let manhattan_centers a b =
  let ax, ay = center a and bx, by = center b in
  abs_float (ax -. bx) +. abs_float (ay -. by)

let equal a b = a.x = b.x && a.y = b.y && a.w = b.w && a.h = b.h

(* Field order, as the polymorphic compare on the record. *)
let compare a b =
  if a.x <> b.x then Int.compare a.x b.x
  else if a.y <> b.y then Int.compare a.y b.y
  else if a.w <> b.w then Int.compare a.w b.w
  else Int.compare a.h b.h

let pp ppf r = Format.fprintf ppf "(x=%d y=%d w=%d h=%d)" r.x r.y r.w r.h
let to_string r = Format.asprintf "%a" pp r
