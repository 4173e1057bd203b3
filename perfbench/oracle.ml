(* The correctness oracle and the exact quality ratios.

   An output is correct when the interpreter, run on the same seeded
   environments, observes the same behaviour (return value, prints,
   termination) from the output as from the input graph the benchmark
   generated.  The interpreter shares no code with the transformation. *)

module Cfg = Lcm_cfg.Cfg
module Frontend = Lcm_frontend.Frontend
module Interp = Lcm_eval.Interp
module Metrics = Lcm_eval.Metrics
module Json = Lcm_server.Json

let fuel = 2_000_000

(* The [program] of an ok run/delta response. *)
let program_of_response resp =
  match Json.parse resp with
  | exception Json.Parse_error _ -> None
  | j ->
    (match (Json.member "status" j, Json.member "program" j) with
    | Some (Json.String "ok"), Some (Json.String p) -> Some p
    | _ -> None)

(* Sums behind [eval_ratio] and [size_ratio]. *)
type ratios = {
  mutable evals_in : int;
  mutable evals_out : int;
  mutable instrs_in : int;
  mutable instrs_out : int;
}

let ratios () = { evals_in = 0; evals_out = 0; instrs_in = 0; instrs_out = 0 }

let same_behaviour ~envs g g' =
  let pool = Cfg.candidate_pool g and pool' = Cfg.candidate_pool g' in
  List.for_all
    (fun env ->
      let o = Interp.run ~fuel ~pool ~env g and o' = Interp.run ~fuel ~pool:pool' ~env g' in
      o.Interp.terminated && o'.Interp.terminated && Interp.same_behaviour o o')
    envs

(* [check ~envs ?ratios g text]: is output [text] a correct transformation
   of [g]?  When [ratios] is given, the pair also counts towards them. *)
let check ~envs ?ratios g text =
  match Frontend.parse_one Frontend.cfg text with
  | Error _ -> false
  | Ok g' ->
    let ok = same_behaviour ~envs g g' in
    (match ratios with
    | Some r when ok ->
      let evals h = Option.get (Metrics.dynamic_evals ~fuel ~pool:(Cfg.candidate_pool h) ~envs h) in
      r.evals_in <- r.evals_in + evals g;
      r.evals_out <- r.evals_out + evals g';
      r.instrs_in <- r.instrs_in + (Metrics.static_counts g).Metrics.instrs;
      r.instrs_out <- r.instrs_out + (Metrics.static_counts g').Metrics.instrs
    | _ -> ());
    ok

let eval_ratio r = float_of_int r.evals_out /. float_of_int (max 1 r.evals_in)
let size_ratio r = float_of_int r.instrs_out /. float_of_int (max 1 r.instrs_in)
