(* Aligned text tables for the experiment reports. *)

let render ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row)
    all;
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("\n== " ^ title ^ "\n");
  let line row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  line header;
  line (List.init ncols (fun i -> String.make widths.(i) '-'));
  List.iter line rows;
  Buffer.contents buf

let print ~title ~header rows = print_string (render ~title ~header rows)

let ms seconds = Printf.sprintf "%.2f" (seconds *. 1000.0)

let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.0)

(* Median of a sample (mean of the middle two for an even count; 0 for
   an empty one). *)
let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median wall-clock time of [repeat] runs of [f]; the result of the first
   run is returned so callers can validate output. *)
let time ?(repeat = 3) f =
  let result = ref None in
  let times =
    List.init repeat (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let t1 = Unix.gettimeofday () in
        if i = 0 then result := Some r;
        t1 -. t0)
  in
  let sorted = List.sort compare times in
  let median = List.nth sorted (repeat / 2) in
  ((match !result with Some r -> r | None -> assert false), median)
