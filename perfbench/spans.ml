(* The benchmark's own span recorder for the traced replay: name, tag,
   start, end, parent and request id per call, kept in memory and
   written out when the run ends. With recording off, [with_span] just
   calls its thunk, which is what the overhead comparison measures. *)

type span = {
  id : int;
  parent : int;  (* 0 for a request's root *)
  req : int;
  name : string;
  tag : string;  (* query class or request kind; "" when none *)
  start_ns : int;
  end_ns : int;
}

let on = ref true
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_req = ref 0

let reset ~recording =
  on := recording;
  recorded := [];
  stack := [];
  next_id := 0;
  current_req := 0

let with_span ?(tag = "") name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Obskit.Clock.now_ns () in
    let finish () =
      let end_ns = Obskit.Clock.now_ns () in
      stack := List.tl !stack;
      recorded := { id; parent; req = !current_req; name; tag; start_ns; end_ns } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A request's root span; everything recorded inside carries its id. *)
let with_request ~tag f =
  incr current_req;
  with_span ~tag "request" f

let all () = List.rev !recorded

let dur s = float_of_int (s.end_ns - s.start_ns)

(* Total nanoseconds and count of the spans named [name] (and tagged
   [tag], when given). *)
let total ?tag name =
  List.fold_left
    (fun (t, n) s ->
      if s.name = name && match tag with Some g -> s.tag = g | None -> true then (t +. dur s, n + 1)
      else (t, n))
    (0., 0) !recorded

let mean_ns ?tag name =
  let t, n = total ?tag name in
  if n = 0 then nan else t /. float_of_int n

(* Mean over requests of each request's fastest [name] call: for calls
   the replay repeats within a request. *)
let mean_min_ns ?tag name =
  let best = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.name = name && match tag with Some g -> s.tag = g | None -> true then
        Hashtbl.replace best s.req
          (Float.min (dur s) (Option.value ~default:infinity (Hashtbl.find_opt best s.req))))
    !recorded;
  let n = Hashtbl.length best in
  if n = 0 then nan else Hashtbl.fold (fun _ d acc -> acc +. d) best 0. /. float_of_int n

let to_json spans =
  let num x = Obskit.Json.Num (float_of_int x) in
  Obskit.Json.List
    (List.map
       (fun s ->
         Obskit.Json.Obj
           [
             ("id", num s.id); ("parent", num s.parent); ("req", num s.req);
             ("name", Obskit.Json.Str s.name); ("tag", Obskit.Json.Str s.tag);
             ("start_ns", num s.start_ns); ("end_ns", num s.end_ns);
           ])
       spans)
