(* Clocks, order statistics, process memory, the host fingerprint, and the
   in-memory span recorder of the traced run. *)

let now = Unix.gettimeofday

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor x) in
    let j = min (n - 1) (i + 1) in
    let f = x -. float_of_int i in
    sorted.(i) +. (f *. (sorted.(j) -. sorted.(i)))
  end

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile (sorted_of_list l) 0.5

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* High-water resident set of a process, in MiB, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let nproc args =
  let ic = Unix.open_process_args_in "nproc" (Array.append [| "nproc" |] args) in
  let n = try input_line ic with End_of_file -> "?" in
  ignore (Unix.close_process_in ic);
  n

let fingerprint () =
  let env v = Option.value (Sys.getenv_opt v) ~default:"" in
  [
    ("nproc", nproc [||]);
    ("nproc_all", nproc [| "--all" |]);
    ("ocaml", Sys.ocaml_version);
    ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
    ("LCM_DOMAINS", env "LCM_DOMAINS");
  ]

(* ---- spans ----

   The traced run wraps the benchmark's own calls into each layer in a
   span: name, start, end, parent span and request id, kept in memory and
   written out when the run ends.  Calls nested inside a black-box call
   (the layers under [Engine.execute], say) are timed by replaying the
   same public call on the same input right after the request; their
   spans name the enclosing span as parent although their interval lies
   outside it.  A layer's self time is its duration minus what its
   children cover. *)

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int;  (** -1 for a request's root *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_sid = ref 0
let current_req = ref 0

(* [timed ~parent name f] runs [f sid] inside a span whose id is [sid]. *)
let timed ~parent name f =
  let sid = !next_sid in
  incr next_sid;
  let t0 = now () in
  let v = f sid in
  let t1 = now () in
  spans := { sid; name; req = !current_req; parent; t0; t1 } :: !spans;
  v

(* A span of known duration [d] seconds, derived rather than observed
   (e.g. a round trip minus the replayed work inside it). *)
let attach ~parent name d =
  let sid = !next_sid and t0 = now () in
  incr next_sid;
  spans := { sid; name; req = !current_req; parent; t0; t1 = t0 +. d } :: !spans;
  sid

let duration f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Per span name: (summed self time in seconds, occurrences). *)
let self_times () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (Option.value (Hashtbl.find_opt covered s.parent) ~default:0. +. (s.t1 -. s.t0)))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt covered s.sid) ~default:0. in
      let sum, n = Option.value (Hashtbl.find_opt self s.name) ~default:(0., 0) in
      Hashtbl.replace self s.name (sum +. d, n + 1))
    !spans;
  self

(* Inclusive durations of the spans named [name], in seconds. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !spans

let write_spans path ~header =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"sid\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.sid s.name s.req s.parent s.t0 s.t1)
    (List.rev !spans);
  close_out oc
