(* A single-threaded keep-alive HTTP/1.1 client over a fixed number of
   connections, one request in flight per connection. Requests are sent
   with a blocking write; responses are collected with select(2), so one
   thread drives every connection and a slow answer on one connection
   never delays reading another. A connection the server closes (it
   caps keep-alive at 100 requests) is reopened on its next send, and
   every connect is counted. *)

type response = { status : int; body : string }

type 'tag slot = {
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;  (* bytes of the in-flight response received so far *)
  mutable job : 'tag option;
}

type 'tag t = {
  port : int;
  slots : 'tag slot array;
  mutable connects : int;
  mutable sent : int;
}

let create ~port ~conns =
  {
    port;
    slots = Array.init conns (fun _ -> { fd = None; buf = Buffer.create 4096; job = None });
    connects = 0;
    sent = 0;
  }

let rec restart_on_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let close_slot s =
  (match s.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  s.fd <- None

let connect t s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     restart_on_eintr (fun () ->
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  t.connects <- t.connects + 1;
  s.fd <- Some fd;
  fd

let idle t =
  let rec find i =
    if i >= Array.length t.slots then None
    else if t.slots.(i).job = None then Some i
    else find (i + 1)
  in
  find 0

let in_flight t = Array.fold_left (fun n s -> if s.job <> None then n + 1 else n) 0 t.slots

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + restart_on_eintr (fun () -> Unix.write_substring fd s !off (n - !off))
  done

(* An idle kept-alive socket with something to read has been closed by
   the server (it answers 408 and closes after 5 s without a request). *)
let stale fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Send [bytes] on slot [i] (which must be idle), reconnecting if the
   kept-alive socket turns out to be dead. *)
let send t i bytes tag =
  let s = t.slots.(i) in
  (match s.fd with Some fd when stale fd -> close_slot s | _ -> ());
  let fd = match s.fd with Some fd -> fd | None -> connect t s in
  (try write_all fd bytes
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     close_slot s;
     write_all (connect t s) bytes);
  Buffer.clear s.buf;
  s.job <- Some tag;
  t.sent <- t.sent + 1

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j >= m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* A complete response in [raw], if one has fully arrived:
   (status, body, server asked to close). *)
let parse_response raw =
  match find_sub raw "\r\n\r\n" with
  | None -> None
  | Some hend -> (
    let head = String.sub raw 0 hend in
    let lines = String.split_on_char '\n' head |> List.map String.trim in
    let status =
      match lines with
      | first :: _ -> (
        match String.split_on_char ' ' first with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0)
      | [] -> 0
    in
    let header name =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
    in
    let len = Option.value ~default:0 (Option.bind (header "content-length") int_of_string_opt) in
    let bstart = hend + 4 in
    if String.length raw < bstart + len then None
    else
      let close =
        match header "connection" with Some c -> String.lowercase_ascii c = "close" | None -> false
      in
      Some (status, String.sub raw bstart len, close))

let chunk = Bytes.create 65536

(* Wait up to [timeout] seconds for in-flight responses; return the
   completed ones with their tags. A connection that ends before its
   response is complete yields status 0. *)
let poll t ~timeout =
  let fds =
    Array.to_list t.slots
    |> List.filter_map (fun s -> match (s.job, s.fd) with Some _, Some fd -> Some fd | _ -> None)
  in
  if fds = [] then []
  else
    let ready, _, _ =
      try Unix.select fds [] [] (Float.max 0. timeout)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           match (s.job, s.fd) with
           | Some tag, Some fd when List.mem fd ready -> (
             let n =
               try restart_on_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk))
               with Unix.Unix_error _ -> 0
             in
             if n > 0 then Buffer.add_subbytes s.buf chunk 0 n;
             match parse_response (Buffer.contents s.buf) with
             | Some (status, body, close) ->
               if close then close_slot s;
               s.job <- None;
               Some (tag, { status; body })
             | None when n = 0 ->
               close_slot s;
               s.job <- None;
               Some (tag, { status = 0; body = Buffer.contents s.buf })
             | None -> None)
           | _ -> None)

let close t = Array.iter close_slot t.slots

(* One blocking request on a fresh client (setup and scrapes). *)
let call ~port bytes =
  let t = create ~port ~conns:1 in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      send t 0 bytes ();
      let deadline = Unix.gettimeofday () +. 120. in
      let rec wait () =
        match poll t ~timeout:1. with
        | [ ((), r) ] -> r
        | _ when Unix.gettimeofday () > deadline -> failwith "no response within 120 s"
        | _ -> wait ()
      in
      wait ())

let get ~port path =
  call ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" path)
