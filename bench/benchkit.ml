(* The one harness every in-process experiment runs on: a config with two
   settings, one timing rule, one writer, and answer checks that fail the
   run.

   - [Smoke] runs every experiment at one small scale and a few rounds,
     and writes its results under _build/bench/.
   - [Reference] runs each experiment's declared scales at the full round
     count, and is the only mode that writes the committed BENCH_*.json
     files.

   Timing: variants run in paired rounds after one warm-up round, the
   order rotated each round so a slow stretch of the host hits every
   variant alike. Each variant reports the median and the interquartile
   range of its rounds, and every variant after the first the median of
   its per-round ratios against the first (drift cancels inside a round). *)

type mode = Smoke | Reference

type config = { mode : mode; repeat : int }

let smoke = { mode = Smoke; repeat = 3 }
let reference = { mode = Reference; repeat = 15 }
let smoke_scale = 0.05

(* The document scales an experiment sweeps: its declared ones in a
   reference run, the one smoke scale otherwise. *)
let scales cfg xs = match cfg.mode with Reference -> xs | Smoke -> [ smoke_scale ]
let scale cfg x = List.hd (scales cfg [ x ])

(* ------------------------------------------------------------------ *)
(* Timing *)

type timing = { median : float; iqr : float; ratio : float option }  (* seconds *)

let time f =
  let t0 = Obskit.Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Obskit.Clock.now_ns () - t0) /. 1e9)

(* A variant that times the whole of [f]. *)
let timed f () = snd (time f)

(* Linear-interpolated quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Median and interquartile range of one variant's samples. *)
let summarize ?ratio xs = { median = median xs; iqr = quantile 0.75 xs -. quantile 0.25 xs; ratio }

(* Each variant returns the seconds of the part it measures, so a variant
   can do untimed set-up and clean-up around it. *)
let compare cfg variants =
  let fs = Array.of_list (List.map snd variants) in
  let n = Array.length fs in
  Array.iter (fun f -> ignore (f ())) fs;
  let samples = Array.make_matrix n cfg.repeat 0. in
  for r = 0 to cfg.repeat - 1 do
    Gc.full_major ();
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      samples.(i).(r) <- fs.(i) ()
    done
  done;
  List.mapi
    (fun i (name, _) ->
      let xs = Array.to_list samples.(i) in
      let ratio =
        if i = 0 then None
        else Some (median (List.mapi (fun r x -> x /. Float.max 1e-9 samples.(0).(r)) xs))
      in
      (name, summarize ?ratio xs))
    variants

let measure cfg f = snd (List.hd (compare cfg [ ("", f) ]))

(* ------------------------------------------------------------------ *)
(* Answer checks *)

let failures = ref 0

let check ok what =
  if not ok then begin
    incr failures;
    Printf.eprintf "CHECK FAILED: %s\n%!" what
  end;
  ok

(* ------------------------------------------------------------------ *)
(* Results: one record per row, rendered as the printed table and as JSON *)

type cell = Int of int | Num of float | Text of string | Bool of bool | Time of timing

let fmt_num x =
  let a = Float.abs x in
  if a >= 1000. then Printf.sprintf "%.0f" x
  else if a >= 10. then Printf.sprintf "%.1f" x
  else if a >= 1. then Printf.sprintf "%.2f" x
  else Printf.sprintf "%.3g" x

let cell_text = function
  | Int i -> string_of_int i
  | Num x -> fmt_num x
  | Text s when String.length s > 60 -> String.sub s 0 57 ^ "..."
  | Text s -> s
  | Bool b -> if b then "yes" else "NO"
  | Time t ->
    Printf.sprintf "%s +-%s%s" (fmt_num (t.median *. 1e3)) (fmt_num (t.iqr *. 1e3))
      (match t.ratio with Some r -> Printf.sprintf " [%.2fx]" r | None -> "")

let json_num x =
  if Float.is_finite x then Obskit.Json.Num (float_of_string (Printf.sprintf "%.4g" x))
  else Obskit.Json.Null

let cell_json = function
  | Int i -> Obskit.Json.Num (float_of_int i)
  | Num x -> json_num x
  | Text s -> Obskit.Json.Str s
  | Bool b -> Obskit.Json.Bool b
  | Time t ->
    Obskit.Json.Obj
      ([ ("ms", json_num (t.median *. 1e3)); ("iqr_ms", json_num (t.iqr *. 1e3)) ]
      @ match t.ratio with Some r -> [ ("ratio", json_num r) ] | None -> [])

(* Columns in order of first appearance; a row without one shows "-". *)
let render ~title rows =
  let header =
    List.fold_left
      (fun acc r -> acc @ List.filter (fun k -> not (List.mem k acc)) (List.map fst r))
      [] rows
  in
  let text r k = match List.assoc_opt k r with Some c -> cell_text c | None -> "-" in
  let lines = header :: List.map (fun r -> List.map (text r) header) rows in
  let widths =
    List.fold_left
      (List.map2 (fun w s -> max w (String.length s)))
      (List.map (fun _ -> 0) header)
      lines
  in
  let line cells =
    String.concat "  "
      (List.map2 (fun w s -> s ^ String.make (w - String.length s) ' ') widths cells)
  in
  String.concat "\n"
    (("\n== " ^ title)
     :: line (List.hd lines)
     :: line (List.map (fun w -> String.make w '-') widths)
     :: List.map line (List.tl lines))
  ^ "\n"

(* The code's revision, marked dirty when lib/, bin/ or bench/ differ
   from it; "unknown" outside a git checkout. *)
let git_rev =
  lazy
    (let read cmd =
       let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with Unix.WEXITED 0 -> Some line | _ -> None
     in
     match read "git rev-parse --short HEAD" with
     | None | Some "" -> "unknown"
     | Some rev -> (
       match read "git diff --quiet HEAD -- lib bin bench && echo clean" with
       | Some "clean" -> rev
       | _ -> rev ^ "-dirty"))

let out_path cfg id =
  let file = "BENCH_" ^ id ^ ".json" in
  match cfg.mode with
  | Reference -> file
  | Smoke ->
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "_build"; "_build/bench" ];
    Filename.concat "_build/bench" file

(* Print the rows as a table and write them, under the run's header, to
   the experiment's result file. *)
let report cfg ~id ~title ~scale rows =
  print_string (render ~title rows);
  let header =
    [
      ("experiment", Obskit.Json.Str id);
      ("title", Obskit.Json.Str title);
      ("mode", Obskit.Json.Str (match cfg.mode with Smoke -> "smoke" | Reference -> "reference"));
      ("scale", Obskit.Json.List (List.map json_num scale));
      ("repeat", Obskit.Json.Num (float_of_int cfg.repeat));
      ("git_rev", Obskit.Json.Str (Lazy.force git_rev));
      ("host_cores", Obskit.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Obskit.Json.Str Sys.ocaml_version);
    ]
  in
  let row r =
    "    " ^ Obskit.Json.to_string (Obskit.Json.Obj (List.map (fun (k, c) -> (k, cell_json c)) r))
  in
  let oc = open_out (out_path cfg id) in
  Printf.fprintf oc "{\n%s,\n  \"rows\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k (Obskit.Json.to_string v)) header))
    (String.concat ",\n" (List.map row rows));
  close_out oc
