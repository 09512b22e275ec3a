(* Output checkers.  Each one recomputes what it checks with the benchmark's
   own code (an edge walk, a row count by index nested loops) or checks a
   property the method must have; none compares against a stored copy of an
   earlier output. *)

module Query = Ljqo_catalog.Query
module Join_graph = Ljqo_catalog.Join_graph
module Relation_data = Ljqo_exec.Relation_data

(* Adjacency lists built from the join graph's edge list. *)
let adjacency q =
  let n = Query.n_relations q in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Join_graph.edge) ->
      adj.(e.u) <- e.v :: adj.(e.u);
      adj.(e.v) <- e.u :: adj.(e.v))
    (Join_graph.edges (Query.graph q));
  adj

(* A linear plan is valid when it is a permutation of the relations and
   every prefix is connected, i.e. each relation after the first has an edge
   to one placed before it. *)
let walk q plan =
  let n = Query.n_relations q in
  if Array.length plan <> n then
    Error (Printf.sprintf "plan has %d relations, query has %d" (Array.length plan) n)
  else begin
    let placed = Array.make n false in
    let adj = adjacency q in
    let rec go i =
      if i = n then Ok ()
      else
        let r = plan.(i) in
        if r < 0 || r >= n then Error (Printf.sprintf "relation %d out of range" r)
        else if placed.(r) then Error (Printf.sprintf "relation %d placed twice" r)
        else if i > 0 && not (List.exists (fun k -> placed.(k)) adj.(r)) then
          Error (Printf.sprintf "prefix of length %d is disconnected" (i + 1))
        else begin
          placed.(r) <- true;
          go (i + 1)
        end
    in
    go 0
  end

let close_to a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* The walk, then the reported cost against a fresh re-cost and the
   admissible lower bound. *)
let plan_and_cost ~model q plan ~cost =
  match walk q plan with
  | Error _ as e -> e
  | Ok () ->
    let recost = Ljqo_cost.Plan_cost.total model q plan in
    let lb = Ljqo_cost.Plan_cost.lower_bound model q in
    if not (close_to cost recost) then
      Error (Printf.sprintf "reported cost %.17g, re-cost %.17g" cost recost)
    else if cost < lb *. (1.0 -. 1e-12) then
      Error (Printf.sprintf "cost %.17g below the lower bound %.17g" cost lb)
    else Ok ()

(* Result size of the join of the relations in [order], a valid plan or a
   prefix of one, counted by index nested loops: each relation is indexed
   on its column for the edge to its first placed neighbour, candidates are
   filtered on every other edge to a placed relation, and complete bindings
   are counted without being materialized.  The size does not depend on the
   order, so a second valid order checks the executor's count.  With [cap],
   counting stops as soon as the count exceeds it. *)
let count_rows ?(cap = max_int) q ~data order =
  let n = Array.length order in
  let pos = Array.make (Query.n_relations q) max_int in
  Array.iteri (fun i r -> pos.(r) <- i) order;
  let adj = adjacency q in
  let earlier =
    Array.map (fun r -> List.filter (fun k -> pos.(k) < pos.(r)) adj.(r)) order
  in
  let card r = Relation_data.cardinality data.(r) in
  let col r other = Relation_data.column data.(r) ~other in
  (* Per position >= 1: the probe partner, the index keyed by this
     relation's column towards it, and the remaining checks as
     (this relation's column, partner, partner's column). *)
  let index =
    Array.init n (fun i ->
        if i = 0 then None
        else
          let r = order.(i) in
          match earlier.(i) with
          | [] -> invalid_arg "count_rows: order is not a valid plan"
          | p :: rest ->
            let mine = col r p in
            let tbl = Hashtbl.create (card r) in
            for t = card r - 1 downto 0 do
              Hashtbl.add tbl mine.(t) t
            done;
            let others = List.map (fun k -> (col r k, k, col k r)) rest in
            Some (p, col p r, tbl, others))
  in
  let binding = Array.make (Query.n_relations q) 0 in
  let total = ref 0 in
  let rec extend i =
    if i = n then begin
      incr total;
      if !total > cap then raise_notrace Exit
    end
    else
      match index.(i) with
      | None -> assert false
      | Some (p, pcol, tbl, others) ->
        let r = order.(i) in
        let key = pcol.(binding.(p)) in
        List.iter
          (fun t ->
            let joins (mine, k, theirs) = mine.(t) = theirs.(binding.(k)) in
            if List.for_all joins others then begin
              binding.(r) <- t;
              extend (i + 1)
            end)
          (Hashtbl.find_all tbl key)
  in
  (try
     for t = 0 to card order.(0) - 1 do
       binding.(order.(0)) <- t;
       extend 1
     done
   with Exit -> ());
  !total

(* A second valid join order: the plan with its first two relations
   swapped (both prefixes of length one and two stay connected, and every
   longer prefix is the same set). *)
let second_order plan =
  let o = Array.copy plan in
  if Array.length o >= 2 then begin
    o.(0) <- plan.(1);
    o.(1) <- plan.(0)
  end;
  o

let row_count q ~data plan ~reported =
  let own = count_rows q ~data (second_order plan) in
  if own = reported then Ok ()
  else Error (Printf.sprintf "executor counted %d rows, nested loops %d" reported own)

(* A truncated execution stopped at [depth]: the prefix of that length
   completed with [prefix_rows] rows, and the next step went past
   [max_rows].  Both are recounted, in the order with the first two
   relations swapped; the longer prefix only until it passes the cap. *)
let truncation q ~data plan ~depth ~prefix_rows ~max_rows =
  let n = Array.length plan in
  if depth < 1 || depth >= n then
    Error (Printf.sprintf "truncated at depth %d of a %d-relation plan" depth n)
  else begin
    let prefix len = second_order (Array.sub plan 0 len) in
    let own = count_rows q ~data (prefix depth) in
    let next = count_rows ~cap:max_rows q ~data (prefix (depth + 1)) in
    if own <> prefix_rows then
      Error
        (Printf.sprintf "prefix of length %d: executor counted %d rows, nested loops %d"
           depth prefix_rows own)
    else if next <= max_rows then
      Error
        (Printf.sprintf "truncated at depth %d, but the next prefix has only %d rows"
           depth next)
    else Ok ()
  end

(* Serve bookkeeping for one request stream against one fresh service: the
   first request for each distinct query must not be an exact hit, and an
   exact hit must return the plan the query's most recent cold serve
   committed. *)
module Serve_book = struct
  type t = (int, int array) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let record (t : t) ~query ~exact_hit plan =
    match (exact_hit, Hashtbl.find_opt t query) with
    | false, _ ->
      Hashtbl.replace t query plan;
      Ok ()
    | true, None ->
      Error (Printf.sprintf "first request for query %d was an exact hit" query)
    | true, Some committed ->
      if committed = plan then Ok ()
      else Error (Printf.sprintf "exact hit for query %d returned another plan" query)
end

(* The checkers must reject known-bad outputs; a checker that accepts
   everything would let any fault through. *)
let self_test () =
  let q =
    Ljqo_qdl.Parser.parse
      "relation a cardinality 40 distinct 0.5; relation b cardinality 30 distinct 0.5;\n\
       relation c cardinality 20 distinct 0.5; relation d cardinality 10 distinct 0.5;\n\
       join a b; join b c; join c d;"
  in
  let failures = ref [] in
  let expect name ok = if not ok then failures := name :: !failures in
  let is_ok = function Ok () -> true | Error _ -> false in
  expect "walk accepts a chain order" (is_ok (walk q [| 0; 1; 2; 3 |]));
  expect "walk accepts a middle start" (is_ok (walk q [| 2; 1; 3; 0 |]));
  expect "walk rejects a disconnected prefix" (not (is_ok (walk q [| 0; 2; 1; 3 |])));
  expect "walk rejects a repeated relation" (not (is_ok (walk q [| 0; 1; 1; 2 |])));
  expect "walk rejects a short plan" (not (is_ok (walk q [| 0; 1; 2 |])));
  let data = Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.create 7) in
  let plan = [| 1; 0; 2; 3 |] in
  let exec = Ljqo_exec.Executor.run q ~data plan in
  let rows = Array.length exec.rows in
  expect "row count agrees with the executor"
    (is_ok (row_count q ~data plan ~reported:rows));
  expect "row count rejects a wrong count"
    (not (is_ok (row_count q ~data plan ~reported:(rows + 1))));
  expect "row count is order-independent"
    (count_rows q ~data [| 3; 2; 1; 0 |] = count_rows q ~data [| 1; 2; 0; 3 |]);
  (* This order's prefixes have 10, 23, 42 and 59 rows, so a cap of 30
     truncates it at depth 2. *)
  let order = [| 3; 2; 1; 0 |] and max_rows = 30 in
  let acts = ref [ Relation_data.cardinality data.(order.(0)) ] in
  let on_step (s : Ljqo_exec.Executor.step_stat) = acts := s.output_rows :: !acts in
  (match Ljqo_exec.Executor.run ~max_rows ~on_step q ~data order with
  | _ -> expect "a cap of 30 truncates the execution" false
  | exception Ljqo_exec.Executor.Result_too_large _ -> (
    let check ~depth ~prefix_rows =
      is_ok (truncation q ~data order ~depth ~prefix_rows ~max_rows)
    in
    match !acts with
    | [ prefix_rows; shorter ] ->
      expect "truncation check accepts the executor's prefix"
        (check ~depth:2 ~prefix_rows);
      expect "truncation check rejects a wrong prefix count"
        (not (check ~depth:2 ~prefix_rows:(prefix_rows + 1)));
      expect "truncation check rejects a prefix one step short"
        (not (check ~depth:1 ~prefix_rows:shorter))
    | _ -> expect "a cap of 30 truncates at depth 2" false));
  let book = Serve_book.create () in
  expect "bookkeeping rejects a first exact hit"
    (not (is_ok (Serve_book.record book ~query:0 ~exact_hit:true [| 0; 1; 2; 3 |])));
  expect "bookkeeping accepts a cold serve"
    (is_ok (Serve_book.record book ~query:0 ~exact_hit:false [| 0; 1; 2; 3 |]));
  expect "bookkeeping accepts the committed plan"
    (is_ok (Serve_book.record book ~query:0 ~exact_hit:true [| 0; 1; 2; 3 |]));
  expect "bookkeeping rejects another plan on an exact hit"
    (not (is_ok (Serve_book.record book ~query:0 ~exact_hit:true [| 1; 0; 2; 3 |])));
  List.rev !failures
