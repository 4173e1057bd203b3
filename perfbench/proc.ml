(* `lcmopt serve --stdio` children: a plain daemon or a sharded fleet.

   Every child runs with LCM_DOMAINS=1 and --workers 1, so a single
   closed-loop client keeps at most one process busy at a time.  [stop]
   closes the request pipe and waits for the child: nothing outlives the
   run. *)

module Json = Lcm_server.Json
module Frame = Lcm_server.Frame

type t = {
  pid : int;
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  reader : Frame.reader;
  chunk : Bytes.t;
  mutable inbox : string list;
}

let lcmopt = ref "lcmopt"

(* Children not yet stopped; any left at exit are stopped then. *)
let live : t list ref = ref []

let child_env () =
  let keep =
    List.filter
      (fun kv -> not (String.length kv >= 12 && String.sub kv 0 12 = "LCM_DOMAINS="))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list ("LCM_DOMAINS=1" :: keep)

let spawn args =
  let exe = !lcmopt in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--stdio"; "--quiet"; "--no-timing"; "--workers"; "1"; "--max-frame"; "16777216" ]
      @ args)
  in
  let pid = Unix.create_process_env exe argv (child_env ()) req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let t =
    { pid; req_w; resp_r; reader = Frame.create ~max_frame:(1 lsl 26); chunk = Bytes.create 65536; inbox = [] }
  in
  live := t :: !live;
  t

let daemon () = spawn []
let fleet () = spawn [ "--shards"; "1" ]

let send t frame = Frame.write_all t.req_w (frame ^ "\n")

let rec recv t =
  match t.inbox with
  | f :: rest ->
    t.inbox <- rest;
    f
  | [] ->
    (match Unix.read t.resp_r t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> failwith "server closed its response stream"
    | n ->
      t.inbox <-
        List.filter_map
          (function Frame.Frame f -> Some f | Frame.Oversized _ -> None)
          (Frame.feed t.reader t.chunk n);
      recv t)

let call t frame =
  send t frame;
  recv t

let ping t =
  match Json.member "status" (Json.parse (call t "{\"id\":0,\"op\":\"ping\"}")) with
  | Some (Json.String "ok") -> ()
  | _ -> failwith "ping failed"

let stats t =
  let j = Json.parse (call t "{\"id\":0,\"op\":\"stats\"}") in
  Option.value (Json.member "stats" j) ~default:Json.Null

let counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some v -> Option.value (Json.to_int_opt v) ~default:0
  | None -> 0

(* The pids doing the work: the serving process, plus its shard workers. *)
let pids t stats =
  let workers =
    match Option.bind (Json.member "shard" stats) (Json.member "fleet") with
    | Some (Json.List ws) ->
      List.filter_map (fun w -> Option.bind (Json.member "pid" w) Json.to_int_opt) ws
    | _ -> []
  in
  t.pid :: workers

(* Summed high-water RSS of the serving processes, read before shutdown. *)
let peak_rss_mb t =
  List.fold_left (fun acc pid -> acc +. Util.vm_hwm_mb pid) 0. (pids t (stats t))

let stop t =
  if List.memq t !live then begin
    live := List.filter (fun u -> u != t) !live;
    (try Unix.close t.req_w with Unix.Unix_error _ -> ());
    (try Unix.close t.resp_r with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid)
  end

let () = at_exit (fun () -> List.iter stop !live)
