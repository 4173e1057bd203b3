(* Seeded inputs for every workload.

   Graphs come from [Gencfg.random_cfg] with three adjustments that make
   the interpreter a usable oracle on every one of them:

   - forward branches are shortened to skip at most eight blocks, so
     executions cover most of a program;
   - every branch whose taken edge points backwards is rewritten to test a
     shared loop counter [k] (set to 64 at entry, halved before each such
     branch), so every loop runs a bounded number of times and every
     program terminates on every environment;
   - prints of the program's variables, in a sample of blocks and at the
     exit, make the computed values observable to [Interp.same_behaviour].

   Everything here runs before any clock starts. *)

module Cfg = Lcm_cfg.Cfg
module Patch = Lcm_cfg.Patch
module Instr = Lcm_ir.Instr
module Expr = Lcm_ir.Expr
module Prng = Lcm_support.Prng
module Gencfg = Lcm_eval.Gencfg
module Frontend = Lcm_frontend.Frontend

let vars = [| "a"; "b"; "c"; "d" |]
let counter = "k"

let bound_loops g =
  let exit = Cfg.exit_label g in
  List.iter
    (fun l ->
      match Cfg.term g l with
      | Cfg.Branch (_, taken, fall) when taken <> exit && taken <= l ->
        Cfg.append_instr g l
          (Instr.Assign (counter, Expr.Binary (Expr.Div, Expr.Var counter, Expr.Const 2)));
        Cfg.set_term g l (Cfg.Branch (Expr.Var counter, taken, fall))
      | _ -> ())
    (Cfg.labels g);
  Cfg.prepend_instr g (Cfg.entry g) (Instr.Assign (counter, Expr.Atom (Expr.Const 64)))

(* Forward branches skip at most a few blocks, as structured code does, so
   an execution walks through most of the program rather than leaping to
   its end. *)
let localize rng g =
  let exit = Cfg.exit_label g in
  List.iter
    (fun l ->
      match Cfg.term g l with
      | Cfg.Branch (c, taken, fall) when taken <> exit && taken > l ->
        Cfg.set_term g l (Cfg.Branch (c, min taken (l + 1 + Prng.int_in rng 1 8), fall))
      | _ -> ())
    (Cfg.labels g)

let observe rng g =
  let entry = Cfg.entry g and exit = Cfg.exit_label g in
  List.iter
    (fun l ->
      if l <> entry && l <> exit && Prng.chance rng ~num:1 ~den:16 then
        Cfg.append_instr g l (Instr.Print (Expr.Var (Prng.choose rng vars))))
    (Cfg.labels g);
  Cfg.set_instrs g exit (Array.to_list (Array.map (fun v -> Instr.Print (Expr.Var v)) vars))

(* One program of [blocks] blocks, fully determined by [seed]. *)
let graph ~seed ~blocks =
  let rng = Prng.of_int seed in
  let params =
    { Gencfg.num_blocks = blocks; max_instrs_per_block = 4; branch_bias = 50; backedge_bias = 10 }
  in
  let g = Gencfg.random_cfg ~params rng in
  localize rng g;
  bound_loops g;
  observe rng g;
  g

(* Inputs to the interpreter: a few environments over the free variables,
   fixed by the run seed so the oracle and the ratios repeat exactly. *)
let envs ~seed =
  let rng = Prng.of_int (seed lxor 0x5eed) in
  List.init 3 (fun _ -> Array.to_list (Array.map (fun v -> (v, Prng.int_in rng 0 8)) vars))

(* A derived seed per program, so program [i] of a run is the same
   whatever else the run generates. *)
let program_seed ~seed i = (seed * 1_000_003) + i

let parse_cfg text =
  match Frontend.parse_one Frontend.cfg text with
  | Ok g -> g
  | Error _ -> failwith "generated CFG text did not parse"

(* ---- request frames ---- *)

module Json = Lcm_server.Json

let run_frame ?(retain = false) ~id ~format program =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Int id);
          ("trace_id", Json.String (Printf.sprintf "p%d" id));
          ("op", Json.String "run");
          ("format", Json.String format);
          ("algorithm", Json.String "lcm-edge");
        ]
       @ (if retain then [ ("retain", Json.Bool true) ] else [])
       @ [ ("program", Json.String program) ]))

(* ---- edit chains for the [delta] workload ----

   A chain of small edits to one retained graph, expressed on the wire in
   the canonical block names the server echoes as [retained_program].
   The generator keeps its own copy of the graph and applies every edit
   with [Patch.apply], so each step's input graph is known for the oracle.

   Edits keep programs terminating: a new or rewired edge must go forward
   in a topological rank of the graph without its counter-guarded back
   edges, and no edit writes [k] or touches a back-edge block's
   terminator. *)

type step = {
  edits : Json.t;  (** the wire [edits] value *)
  patch : Patch.edit list;  (** the same edits, for the local replay *)
}

(* Forward rank: a topological order of the graph without the edges taken
   by counter-guarded branches (which are exactly its back edges). *)
let ranks g =
  let rank = Hashtbl.create 1024 in
  let seen = Hashtbl.create 1024 in
  let order = ref [] in
  let forward l =
    match Cfg.term g l with
    | Cfg.Branch (Expr.Var v, _, fall) when v = counter -> [ fall ]
    | _ -> Cfg.successors g l
  in
  let rec dfs l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter dfs (forward l);
      order := l :: !order
    end
  in
  dfs (Cfg.entry g);
  List.iteri (fun i l -> Hashtbl.replace rank l (float_of_int i)) !order;
  rank

let term_line = function
  | Cfg.Goto l -> Printf.sprintf "goto %s" (Lcm_cfg.Label.to_string l)
  | Cfg.Branch (c, a, b) ->
    Printf.sprintf "if %s then %s else %s"
      (match c with Expr.Var v -> v | Expr.Const n -> string_of_int n)
      (Lcm_cfg.Label.to_string a) (Lcm_cfg.Label.to_string b)
  | Cfg.Halt -> "halt"

let edit_json ?block ?(add = false) ?instrs ?term () =
  Json.Obj
    ((match block with Some l -> [ ("block", Json.String (Lcm_cfg.Label.to_string l)) ] | None -> [])
    @ (if add then [ ("add", Json.Bool true) ] else [])
    @ (match instrs with
      | Some is -> [ ("instrs", Json.List (List.map (fun i -> Json.String (Instr.to_string i)) is)) ]
      | None -> [])
    @ match term with Some t -> [ ("term", Json.String t) ] | None -> [])

(* [chain ~seed ~steps g] mutates [g] (the canonical parse of the retained
   text) through [steps] edits and returns them. *)
let chain ~seed ~steps g =
  let rng = Prng.of_int (seed lxor 0xde17a) in
  let rank = ranks g in
  let rank_of l = Hashtbl.find rank l in
  let entry = Cfg.entry g and exit = Cfg.exit_label g in
  let original = Hashtbl.create 1024 in
  (* Candidate expressions in first-occurrence order, with the label of
     that first occurrence: appending [v := e] to a block at or after it
     keeps the pool — and so the incremental capture — valid. *)
  let pool_first = ref [] in
  let seen_expr = Hashtbl.create 64 in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          match Instr.candidate i with
          | Some e when not (Hashtbl.mem seen_expr e) ->
            Hashtbl.replace seen_expr e ();
            pool_first := (e, l) :: !pool_first
          | _ -> ())
        (Cfg.instrs g l))
    (Cfg.labels g);
  let pool_first = Array.of_list (List.rev !pool_first) in
  let editable l = l <> entry && l <> exit in
  let labels () = Array.of_list (List.filter editable (Cfg.labels g)) in
  (* At most [held] blocks carry an appended instruction at a time: an
     edit either appends to a block or restores one to its original body
     (the block named, when it carries one; otherwise the oldest once
     [held] are out), so the graph's size stays level along the chain. *)
  let held = 8 and edited = ref [] in
  let restore m =
    let orig = Hashtbl.find original m in
    Hashtbl.remove original m;
    edited := List.filter (fun x -> x <> m) !edited;
    (m, orig)
  in
  let set_instrs l =
    let l, body' =
      if Hashtbl.mem original l then restore l
      else if List.length !edited >= held then restore (List.nth !edited (held - 1))
      else begin
        let body = Cfg.instrs g l in
        Hashtbl.replace original l body;
        edited := l :: !edited;
        let v = Prng.choose rng vars in
        let usable = List.filter (fun (_, first) -> first <= l) (Array.to_list pool_first) in
        let extra =
          if usable <> [] && Prng.chance rng ~num:3 ~den:4 then
            Instr.Assign (v, fst (Prng.choose_list rng usable))
          else Instr.Assign (v, Expr.Atom (Expr.Const (Prng.int_in rng 0 5)))
        in
        (l, body @ [ extra ])
      end
    in
    ([ edit_json ~block:l ~instrs:body' () ], [ Patch.Set_instrs (l, body') ])
  in
  (* Rewire the taken edge of a plain branch (never a counter-guarded one)
     to another block of higher rank. *)
  let set_term l =
    match Cfg.term g l with
    | Cfg.Branch (Expr.Var v, _, fall) when v <> counter ->
      let r = rank_of l in
      let later = List.filter (fun m -> m <> entry && rank_of m > r) (Cfg.labels g) in
      if later = [] then None
      else begin
        let t = Cfg.Branch (Expr.Var v, Prng.choose_list rng later, fall) in
        Some ([ edit_json ~block:l ~term:(term_line t) () ], [ Patch.Set_term (l, t) ])
      end
    | _ -> None
  in
  (* A fresh block on the fall-through edge of [l]; its body reuses pool
     expressions, or — one time in two — introduces a new one, which
     forces the server's full-solve fallback.  A block that brought a new
     expression is emptied again by a later edit (a second fallback), so
     the pool does not grow along the chain. *)
  let novel = ref [] in
  let add_block l =
    match Cfg.term g l with
    | Cfg.Goto next ->
      let fresh = Cfg.label_bound g in
      let body =
        if Prng.bool rng then begin
          novel := fresh :: !novel;
          let e = Expr.Binary (Expr.Mod, Expr.Var (Prng.choose rng vars), Expr.Const (Prng.int_in rng 2 9)) in
          [ Instr.Assign (Prng.choose rng vars, e) ]
        end
        else
          let usable = List.filter (fun (_, first) -> first <= l) (Array.to_list pool_first) in
          if usable = [] then [] else [ Instr.Assign (Prng.choose rng vars, fst (Prng.choose_list rng usable)) ]
      in
      Hashtbl.replace rank fresh ((rank_of l +. rank_of next) /. 2.);
      Some
        ( [
            edit_json ~add:true ~instrs:body ~term:(term_line (Cfg.Goto next)) ();
            edit_json ~block:l ~term:(term_line (Cfg.Goto fresh)) ();
          ],
          [ Patch.Add_block (body, Cfg.Goto next); Patch.Set_term (l, Cfg.Goto fresh) ] )
    | _ -> None
  in
  List.init steps (fun _ ->
      let ls = labels () in
      let rec pick () =
        let l = Prng.choose rng ls in
        let k = Prng.int rng 100 in
        let r =
          match !novel with
          | m :: rest when k < 3 ->
            novel := rest;
            Some ([ edit_json ~block:m ~instrs:[] () ], [ Patch.Set_instrs (m, []) ])
          | _ ->
            if k < 90 then Some (set_instrs l) else if k < 95 then set_term l else add_block l
        in
        match r with Some x -> x | None -> pick ()
      in
      let edits, patch = pick () in
      ignore (Patch.apply g patch);
      { edits = Json.List edits; patch })
