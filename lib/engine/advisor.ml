type profile = {
  imbalance : float;
  interconnect_load : float;
  local_fraction : float;
  class_ : Workloads.App.imbalance_class;
}

type recommendation = {
  profile : profile;
  policy : Policies.Spec.t;
  rationale : string;
}

let classify ~imbalance =
  if imbalance > 1.30 then Workloads.App.High
  else if imbalance >= 0.85 then Workloads.App.Moderate
  else Workloads.App.Low

let profile ?(seed = 42) ?(window = 5.0) ~mode app =
  let vm = Config.vm ~policy:Policies.Spec.first_touch app in
  let cfg = Config.make ~seed ~max_epochs:(int_of_float (window /. Config.epoch_len)) ~mode [ vm ] in
  let result = Runner.run cfg in
  let vm_result =
    match result.Result.vms with [ v ] -> v | _ -> assert false
  in
  {
    imbalance = result.Result.imbalance;
    interconnect_load = result.Result.interconnect_load;
    local_fraction = vm_result.Result.local_fraction;
    class_ = classify ~imbalance:result.Result.imbalance;
  }

let recommend ?seed ?window ~mode app =
  let profile = profile ?seed ?window ~mode app in
  let policy, rationale =
    match profile.class_ with
    | Workloads.App.High ->
        ( Policies.Spec.round_4k_carrefour,
          "high imbalance under first-touch: a single node's controller saturates \
           (master-slave initialisation); interleave the pages and let Carrefour \
           recover locality where it can" )
    | Workloads.App.Moderate ->
        ( Policies.Spec.first_touch_carrefour,
          "moderate imbalance: first-touch locality is mostly right; Carrefour \
           smooths the overloaded spots" )
    | Workloads.App.Low ->
        ( Policies.Spec.first_touch,
          "balanced accesses with high locality: first-touch is ideal; dynamic \
           migration could only be misled by transient remote bursts" )
  in
  { profile; policy; rationale }

let pp_recommendation fmt r =
  Format.fprintf fmt
    "@[<v>profile: imbalance %.0f%%, interconnect %.0f%%, local %.0f%% -> class %s@,\
     recommend: %s@,because: %s@]"
    (100.0 *. r.profile.imbalance)
    (100.0 *. r.profile.interconnect_load)
    (100.0 *. r.profile.local_fraction)
    (Workloads.App.class_name r.profile.class_)
    (Policies.Spec.name r.policy) r.rationale
