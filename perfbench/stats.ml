(* Order statistics for the benchmark's reports. Percentiles are
   nearest-rank over the sorted sample, and a tail percentile is only
   reported when at least [min_beyond] samples lie above its rank, so a
   tail figure never rests on a handful of points. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* 1-based nearest rank of the p-th percentile in a sample of n. *)
let rank p n = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    a.(rank p (Array.length a) - 1)

let beyond p n = n - rank p n

(* Does a sample of [n] support reporting the p-th percentile? *)
let supports p n = n > 0 && beyond p n >= min_beyond

let median xs = percentile 50. xs

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Mean of the slowest [share] percent of the sample (at least one
   value). Unlike a high percentile it does not jump when the sample's
   top values are spread over separate clusters. *)
let tail_mean share xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    let k = max 1 (int_of_float (Float.ceil (share /. 100. *. float_of_int n))) in
    mean (Array.to_list (Array.sub a (n - k) k))

let sum xs = List.fold_left ( +. ) 0. xs

let ratio a b = if b = 0. then nan else a /. b
