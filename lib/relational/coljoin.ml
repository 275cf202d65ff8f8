(* Integer-key join kernels over the columnar storage: the
   TSENS_STORAGE=columnar implementations that Join dispatches to. Both
   sides are encoded once ({!Relation.encoded}, memoized), join keys
   become single ints — the raw dictionary id for one-column keys, a
   dense {!Intkey.Keydict} id for multi-column keys (built over the
   right side, probed by the left; a probe miss is a guaranteed
   non-match) — and the build/probe loops run over open-addressing int
   tables with no boxed value in sight. Tuples reappear only when a
   result decodes back through {!Relation.of_encoded}.

   Every output is canonicalized the same way as the row path
   (saturating order-free count sums, non-positive groups dropped, rows
   sorted by [Tuple.compare]), so results are bit-identical to the row
   kernels — pinned by test_storage's equivalence properties. *)

let c_rows = Obs.counter "join.rows_emitted"
let c_sat = Obs.counter "count.saturations"
let g_groups = Obs.gauge "join.max_group_table_rows"

type plan = {
  combined : Schema.t;
  ca : Colrel.t;
  cb : Colrel.t;
  lsig : int array; (* per left row: key id, -1 = cannot match *)
  rsig : int array; (* per right row: key id, always >= 0 *)
  right_extra : int array; (* right-side column indexes not in the key *)
}

(* Key signatures for both sides. One-column keys use raw dictionary ids
   (the column arrays themselves — zero work); wider keys intern the
   right side's key vectors into dense ids and look the left side's up
   (absent = no partner anywhere on the right). A schema-disjoint pair
   degenerates to the counted cross product via the constant signature
   0, like the row kernels. *)
let make_plan a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let common = Schema.inter sa sb in
  let combined = Schema.union sa sb in
  let ca = Relation.encoded a and cb = Relation.encoded b in
  let lpos = Schema.positions ~sub:common sa in
  let rpos = Schema.positions ~sub:common sb in
  let right_extra = Schema.positions ~sub:(Schema.diff sb sa) sb in
  let k = Array.length lpos in
  let lsig, rsig =
    if k = 0 then
      (Array.make (Colrel.nrows ca) 0, Array.make (Colrel.nrows cb) 0)
    else if k = 1 then (Colrel.col ca lpos.(0), Colrel.col cb rpos.(0))
    else begin
      let kd = Intkey.Keydict.create ~arity:k (Colrel.nrows cb) in
      let scratch = Array.make k 0 in
      let sigs lookup c pos =
        let srcs = Array.map (Colrel.col c) pos in
        Array.init (Colrel.nrows c) (fun i ->
            for j = 0 to k - 1 do
              scratch.(j) <- srcs.(j).(i)
            done;
            lookup kd scratch)
      in
      let rsig = sigs Intkey.Keydict.lookup_or_add cb rpos in
      let lsig = sigs Intkey.Keydict.lookup ca lpos in
      (lsig, rsig)
    end
  in
  { combined; ca; cb; lsig; rsig; right_extra }

(* ------------------------------------------------------------------ *)
(* count_join: |a ⋈ b| without materializing anything. Per key id the
   right side contributes a summed multiplicity; each left row adds
   count(left) * that sum. Left rows whose signature is -1 match
   nothing. *)

let count_join a b =
  let plan = make_plan a b in
  let nb = Colrel.nrows plan.cb and na = Colrel.nrows plan.ca in
  let bcounts = Colrel.counts plan.cb and acounts = Colrel.counts plan.ca in
  let tab = Intkey.Itab.create (max 16 nb) in
  for j = 0 to nb - 1 do
    Intkey.Itab.add_count tab plan.rsig.(j) bcounts.(j)
  done;
  let total = ref Count.zero in
  for i = 0 to na - 1 do
    if plan.lsig.(i) >= 0 then begin
      let group = Intkey.Itab.find tab plan.lsig.(i) ~default:0 in
      if group > 0 then
        total := Count.add_tracked !total (Count.mul acounts.(i) group)
    end
  done;
  !total

(* ------------------------------------------------------------------ *)
(* natural_join: materialize the combined rows. Every output row embeds
   its full left row, and two right partners of one left row that agreed
   on the key and every extra column would be the same (distinct) right
   row — so outputs are distinct and go straight through
   Relation.of_encoded with no grouping pass. *)

(* Chained right-row index: [heads] maps a key id to the most recently
   seen right row, [next] threads the rest. Probing walks newest-first;
   output order is canonicalized later, so chain order is irrelevant. *)
let build_chains plan =
  let nb = Colrel.nrows plan.cb in
  let heads = Intkey.Itab.create (max 16 nb) in
  let next = Array.make (max 1 nb) (-1) in
  for j = 0 to nb - 1 do
    next.(j) <- Intkey.Itab.exchange heads plan.rsig.(j) j ~default:(-1)
  done;
  (heads, next)

let natural_join a b =
  let plan = make_plan a b in
  let na = Colrel.nrows plan.ca in
  let acounts = Colrel.counts plan.ca and bcounts = Colrel.counts plan.cb in
  let la = Colrel.arity plan.ca in
  let ne = Array.length plan.right_extra in
  let heads, next = build_chains plan in
  let acols = Array.init la (Colrel.col plan.ca) in
  let ecols = Array.map (Colrel.col plan.cb) plan.right_extra in
  let out = Array.init (la + ne) (fun _ -> Intkey.Ibuf.create 64) in
  let counts = Intkey.Ibuf.create 64 in
  let live = Obs.enabled () in
  for i = 0 to na - 1 do
    if plan.lsig.(i) >= 0 then begin
      let j = ref (Intkey.Itab.find heads plan.lsig.(i) ~default:(-1)) in
      while !j >= 0 do
        for jc = 0 to la - 1 do
          Intkey.Ibuf.push out.(jc) acols.(jc).(i)
        done;
        for jc = 0 to ne - 1 do
          Intkey.Ibuf.push out.(la + jc) ecols.(jc).(!j)
        done;
        let cnt = Count.mul acounts.(i) bcounts.(!j) in
        if live then begin
          Obs.tick c_rows;
          if Count.is_saturated cnt then Obs.tick c_sat
        end;
        Intkey.Ibuf.push counts cnt;
        j := next.(!j)
      done
    end
  done;
  Relation.of_encoded
    (Colrel.make ~schema:plan.combined
       ~cols:(Array.map Intkey.Ibuf.to_array out)
       ~counts:(Intkey.Ibuf.to_array counts))

(* ------------------------------------------------------------------ *)
(* join_project: the fused γ_group(a ⋈ b) — matches stream into an
   integer group-by keyed on the [group] columns of the (never
   materialized) combined row, decoded once at the end. *)

(* Group accumulator keyed by an int vector of [garity] components,
   specialized per arity: nullary groups are a single total, unary
   groups key an Itab by the raw id, wider groups intern through a
   Keydict with a parallel dense sum buffer. *)
type grouper = {
  garity : int;
  kd : Intkey.Keydict.t option; (* Some iff garity >= 2 *)
  tab : Intkey.Itab.t; (* garity = 1: id -> summed count *)
  sums : Intkey.Ibuf.t; (* garity >= 2: dense key id -> summed count *)
  mutable nullary : Count.t; (* garity = 0 *)
  mutable any : bool; (* garity = 0: saw at least one row *)
  scratch : int array; (* caller-filled key, length max 1 garity *)
}

let grouper garity hint =
  {
    garity;
    kd =
      (if garity >= 2 then Some (Intkey.Keydict.create ~arity:garity hint)
       else None);
    tab = Intkey.Itab.create (if garity = 1 then max 16 hint else 16);
    sums = Intkey.Ibuf.create (if garity >= 2 then max 16 hint else 8);
    nullary = Count.zero;
    any = false;
    scratch = Array.make (max 1 garity) 0;
  }

let grouper_add g key cnt =
  if g.garity = 0 then begin
    g.any <- true;
    g.nullary <- Count.add_tracked g.nullary cnt
  end
  else if g.garity = 1 then begin
    let prev = Intkey.Itab.find g.tab key.(0) ~default:0 in
    Intkey.Itab.set g.tab key.(0) (Count.add_tracked prev cnt)
  end
  else begin
    let kd = Option.get g.kd in
    let id = Intkey.Keydict.lookup_or_add kd key in
    if id = Intkey.Ibuf.length g.sums then Intkey.Ibuf.push g.sums cnt
    else
      Intkey.Ibuf.set g.sums id
        (Count.add_tracked (Intkey.Ibuf.get g.sums id) cnt)
  end

let grouper_size g =
  if g.garity = 0 then if g.any then 1 else 0
  else if g.garity = 1 then Intkey.Itab.length g.tab
  else Intkey.Keydict.length (Option.get g.kd)

(* Visit every accumulated (key, summed count) group. The key array is
   reused between calls: consumers must copy what they keep. *)
let grouper_iter g f =
  if g.garity = 0 then begin
    if g.any then f [||] g.nullary
  end
  else if g.garity = 1 then begin
    let key = Array.make 1 0 in
    Intkey.Itab.iter
      (fun k c ->
        key.(0) <- k;
        f key c)
      g.tab
  end
  else begin
    let kd = Option.get g.kd in
    let key = Array.make g.garity 0 in
    for id = 0 to Intkey.Keydict.length kd - 1 do
      for j = 0 to g.garity - 1 do
        key.(j) <- Intkey.Keydict.get kd id j
      done;
      f key (Intkey.Ibuf.get g.sums id)
    done
  end

(* [gsrcs] resolves each group column to its source column on one side:
   positions below the left arity read the left row, the rest read the
   matched right row's extra columns. *)
let group_matches plan gsrcs garity =
  let na = Colrel.nrows plan.ca in
  let acounts = Colrel.counts plan.ca and bcounts = Colrel.counts plan.cb in
  let heads, next = build_chains plan in
  let g = grouper garity 1024 in
  let live = Obs.enabled () in
  for i = 0 to na - 1 do
    if plan.lsig.(i) >= 0 then begin
      let j = ref (Intkey.Itab.find heads plan.lsig.(i) ~default:(-1)) in
      while !j >= 0 do
        Array.iteri
          (fun jc src ->
            g.scratch.(jc) <-
              (match src with
              | `Left col -> col.(i)
              | `Right col -> col.(!j)))
          gsrcs;
        let cnt = Count.mul acounts.(i) bcounts.(!j) in
        if live then begin
          Obs.tick c_rows;
          if Count.is_saturated cnt then Obs.tick c_sat
        end;
        grouper_add g g.scratch cnt;
        j := next.(!j)
      done
    end
  done;
  Obs.observe g_groups (grouper_size g);
  g

let join_project ~group a b =
  let plan = make_plan a b in
  let positions = Schema.positions ~sub:group plan.combined in
  let la = Colrel.arity plan.ca in
  let gsrcs =
    Array.map
      (fun p ->
        if p < la then `Left (Colrel.col plan.ca p)
        else `Right (Colrel.col plan.cb plan.right_extra.(p - la)))
      positions
  in
  let garity = Array.length positions in
  let final = group_matches plan gsrcs garity in
  let n = grouper_size final in
  let cols = Array.init garity (fun _ -> Array.make n 0) in
  let counts = Array.make n 0 in
  let kept = ref 0 in
  grouper_iter final (fun key cnt ->
      (* Counts here are sums of positive products, but mirror the row
         normalization's non-positive guard for exactness. *)
      if cnt > 0 then begin
        for j = 0 to garity - 1 do
          cols.(j).(!kept) <- key.(j)
        done;
        counts.(!kept) <- cnt;
        incr kept
      end);
  let cols = Array.map (fun c -> Array.sub c 0 !kept) cols in
  let counts = Array.sub counts 0 !kept in
  Relation.of_encoded (Colrel.make ~schema:group ~cols ~counts)
