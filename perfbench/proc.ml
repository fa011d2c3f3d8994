(* The server under test as a child process: spawn the built CLI, learn
   its ephemeral port from the banner it prints, scrape it, and stop it.
   Every child is remembered until it has been reaped, and an exit hook
   stops whatever is still running, so no run leaves a server behind. *)

type server = { pid : int; out : Unix.file_descr; port : int; command : string list }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let stop_all () = List.iter reap !live

(* Has a child exited without being stopped? *)
let any_exited () =
  List.exists
    (fun pid ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _ -> true
      | exception Unix.Unix_error _ -> true)
    !live

let () =
  at_exit stop_all;
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Run a command to completion with stdout discarded. *)
let run exe args =
  let null = devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null null Unix.stderr)
  in
  live := pid :: !live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (fun p -> p <> pid) !live;
  match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" exe (String.concat " " args))

(* The first line the child prints, within [timeout] seconds. *)
let read_line fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "server printed no banner";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      if Unix.read fd one 0 1 = 0 then failwith "server exited before serving"
      else if Bytes.get one 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let port_of_banner line =
  let key = "http://127.0.0.1:" in
  match Client.find_sub line key with
  | None -> failwith ("unexpected server banner: " ^ line)
  | Some i ->
    let rest = String.sub line (i + String.length key) (String.length line - i - String.length key) in
    let digits = String.to_seq rest |> Seq.take_while (fun c -> c >= '0' && c <= '9') |> String.of_seq in
    int_of_string digits

(* Start [exe args] and wait until it answers /healthz. *)
let spawn exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null w Unix.stderr)
  in
  live := pid :: !live;
  let port = port_of_banner (read_line r ~timeout:120.) in
  let s = { pid; out = r; port; command = exe :: args } in
  let h = Client.get ~port "/healthz" in
  if h.Client.status <> 200 then failwith "server is not healthy";
  s

let stop s =
  reap s.pid;
  try Unix.close s.out with Unix.Unix_error _ -> ()

(* Peak resident set of the server, MB. *)
let vm_hwm_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* Prometheus counters summed over their store labels, by metric name. *)
let scrape_counters s =
  let r = Client.get ~port:s.port "/metrics" in
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' r.Client.body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> ()
           | Some sp -> (
             let key = String.sub line 0 sp in
             let name = match String.index_opt key '{' with Some b -> String.sub key 0 b | None -> key in
             match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
             | Some v ->
               Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
             | None -> ()));
  fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name)

let stored_bytes s =
  let r = Client.get ~port:s.port "/stats" in
  match Obskit.Json.parse r.Client.body with
  | Ok j -> Option.value ~default:nan (Option.bind (Obskit.Json.member "total_bytes" j) Obskit.Json.to_float)
  | Error _ -> nan
